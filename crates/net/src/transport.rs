//! The transport seam between the engine and the network substrate.
//!
//! The engine's transaction-execution paths replicate through this trait
//! instead of a concrete endpoint, so the same execution code runs over the
//! deterministic in-memory simulation ([`Endpoint`]) and over a real TCP
//! mesh (`star-serverd`). The simulation twin and the wire deployment being
//! *the same code* on either side of this seam is what makes transport-parity
//! testing meaningful: any divergence is in the transport, not the engine.

use crate::endpoint::{Endpoint, Message, SendError};

/// A one-way, per-link-FIFO message fabric connecting the nodes of a cluster.
///
/// Implementations must preserve per-link send order for delivered messages
/// (the operation-replication stream relies on it); cross-link ordering is
/// unspecified.
pub trait Transport<M: Message>: Send + Sync {
    /// The node id this transport handle sends from.
    fn node(&self) -> usize;

    /// Number of nodes in the cluster.
    fn num_nodes(&self) -> usize;

    /// Sends `payload` to node `to`.
    fn send(&self, to: usize, payload: M) -> Result<(), SendError>;
}

impl<M: Message + Clone> Transport<M> for Endpoint<M> {
    fn node(&self) -> usize {
        Endpoint::node(self)
    }

    fn num_nodes(&self) -> usize {
        Endpoint::num_nodes(self)
    }

    fn send(&self, to: usize, payload: M) -> Result<(), SendError> {
        Endpoint::send(self, to, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{NetworkConfig, SimNetwork};
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u64);

    impl Message for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn endpoint_implements_transport() {
        let (_net, eps) = SimNetwork::new::<Msg>(2, NetworkConfig::with_latency(Duration::ZERO));
        let transport: &dyn Transport<Msg> = &eps[0];
        assert_eq!(transport.node(), 0);
        assert_eq!(transport.num_nodes(), 2);
        transport.send(1, Msg(5)).unwrap();
        assert_eq!(eps[1].drain(), vec![Msg(5)]);
    }
}
