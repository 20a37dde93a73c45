//! Integration tests for the simulated network's ordering guarantees and for
//! the fault plane's delivery semantics — the properties the chaos harness's
//! correctness argument rests on.

use star_net::{LinkFaults, Message, NetworkConfig, SimNetwork};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
struct Msg(u64);

impl Message for Msg {
    fn wire_size(&self) -> usize {
        8
    }
}

/// A payload that opts into byzantine corruption: the fault plane's salt
/// flips one bit of the value, like `ReplicationBatch` does for row data.
#[derive(Debug, Clone, PartialEq)]
struct CorruptibleMsg(u64);

impl Message for CorruptibleMsg {
    fn wire_size(&self) -> usize {
        8
    }

    fn corrupt(&mut self, salt: u64) -> bool {
        self.0 ^= 1 << (salt % 64);
        true
    }
}

fn network<M: Message>(num_nodes: usize) -> (SimNetwork, Vec<star_net::Endpoint<M>>) {
    SimNetwork::new(num_nodes, NetworkConfig::with_latency(Duration::ZERO))
}

fn ids(delivered: Vec<Msg>) -> Vec<u64> {
    delivered.into_iter().map(|m| m.0).collect()
}

#[test]
fn delivery_is_fifo_per_link_under_nonzero_latency() {
    // Operation replication requires per-link FIFO; latency must delay
    // messages without letting them overtake each other.
    let config = NetworkConfig::with_latency(Duration::from_millis(1));
    let (_net, eps) = SimNetwork::new::<Msg>(3, config);
    let start = Instant::now();
    for i in 0..16u64 {
        eps[0].send(2, Msg(i)).unwrap();
        eps[1].send(2, Msg(100 + i)).unwrap();
    }
    let delivered = ids(eps[2].drain());
    assert!(start.elapsed() >= Duration::from_millis(1), "latency was not applied");
    assert_eq!(delivered.len(), 32);
    // Per-sender streams arrive in send order even though the two senders
    // interleave on the shared destination queue.
    let (from_0, from_1): (Vec<u64>, Vec<u64>) = delivered.into_iter().partition(|&id| id < 100);
    assert_eq!(from_0, (0..16).collect::<Vec<_>>());
    assert_eq!(from_1, (100..116).collect::<Vec<_>>());
}

#[test]
fn dropped_messages_are_not_delivered() {
    let (net, eps) = network::<Msg>(2);
    net.seed_faults(1);
    net.set_link_faults(0, 1, LinkFaults::dropping(1.0));
    for i in 0..5u64 {
        eps[0].send(1, Msg(i)).unwrap();
    }
    assert!(eps[1].drain().is_empty(), "dropped messages must not be delivered");
}

#[test]
fn duplicated_messages_are_delivered_twice() {
    let (net, eps) = network::<Msg>(2);
    net.seed_faults(2);
    net.set_link_faults(0, 1, LinkFaults::duplicating(1.0));
    eps[0].send(1, Msg(7)).unwrap();
    assert_eq!(ids(eps[1].drain()), vec![7, 7]);
}

#[test]
fn reordered_messages_are_overtaken_then_released() {
    let (net, eps) = network::<Msg>(2);
    net.seed_faults(3);
    net.set_link_faults(0, 1, LinkFaults::reordering(1.0));
    eps[0].send(1, Msg(1)).unwrap();
    assert!(eps[1].drain().is_empty(), "stashed message must not be visible yet");
    // A later fault-free message overtakes the stashed one.
    net.set_link_faults(0, 1, LinkFaults::none());
    eps[0].send(1, Msg(2)).unwrap();
    assert_eq!(ids(eps[1].drain()), vec![2, 1], "the second message must overtake the first");
}

#[test]
fn flush_stash_releases_reordered_messages_without_new_traffic() {
    let (net, eps) = network::<Msg>(2);
    net.seed_faults(4);
    net.set_link_faults(0, 1, LinkFaults::reordering(1.0));
    eps[0].send(1, Msg(9)).unwrap();
    assert!(eps[1].drain().is_empty());
    // This is what the replication fence does before draining receivers.
    eps[0].flush_stash();
    assert_eq!(ids(eps[1].drain()), vec![9]);
}

#[test]
fn corrupted_messages_arrive_with_one_bit_flipped() {
    let (net, eps) = network::<CorruptibleMsg>(2);
    net.seed_faults(5);
    net.set_link_faults(0, 1, LinkFaults::corrupting(1.0));
    eps[0].send(1, CorruptibleMsg(0)).unwrap();
    let delivered = eps[1].drain();
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].0.count_ones(), 1, "exactly one bit must have flipped");
}

#[test]
fn corruption_is_a_noop_for_payloads_that_do_not_opt_in() {
    // `Msg` keeps the default `corrupt` (returns false): a Corrupt verdict
    // degrades to a plain delivery.
    let (net, eps) = network::<Msg>(2);
    net.seed_faults(6);
    net.set_link_faults(0, 1, LinkFaults::corrupting(1.0));
    eps[0].send(1, Msg(11)).unwrap();
    assert_eq!(ids(eps[1].drain()), vec![11]);
}

#[test]
fn cut_links_drop_silently_and_heal() {
    let (net, eps) = network::<Msg>(3);
    net.cut_link(0, 1);
    assert!(net.is_link_cut(0, 1) && net.is_link_cut(1, 0));
    // Sends succeed (the sender cannot tell) but nothing arrives.
    eps[0].send(1, Msg(1)).unwrap();
    eps[1].send(0, Msg(2)).unwrap();
    assert!(eps[1].drain().is_empty());
    assert!(eps[0].drain().is_empty());
    // Unrelated links are unaffected.
    eps[0].send(2, Msg(3)).unwrap();
    assert_eq!(ids(eps[2].drain()), vec![3]);
    net.heal_link(0, 1);
    eps[0].send(1, Msg(4)).unwrap();
    assert_eq!(ids(eps[1].drain()), vec![4]);
}

#[test]
fn fault_decisions_reproduce_from_the_seed() {
    let run = |seed: u64| -> Vec<u64> {
        let (net, eps) = network::<Msg>(2);
        net.seed_faults(seed);
        net.set_link_faults(
            0,
            1,
            LinkFaults {
                drop_probability: 0.2,
                duplicate_probability: 0.2,
                reorder_probability: 0.2,
                ..LinkFaults::none()
            },
        );
        for i in 0..64u64 {
            eps[0].send(1, Msg(i)).unwrap();
        }
        eps[0].flush_stash();
        ids(eps[1].drain())
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds should produce different histories");
}
