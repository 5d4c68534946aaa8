//! Inter-processor-interrupt latency model.
//!
//! x86 IPIs are delivered through the APIC, which "does not support
//! flexible multicast delivery" (§2.1) — the sender programs the ICR once
//! per destination, so sends *serialize at the sender*, and each message
//! then propagates over the QPI fabric. This is the mechanism behind the
//! paper's 6 µs (16-core) and 80 µs (120-core) shootdowns.
//!
//! [`IpiFabric::multicast`] converts (initiator, target set, start time)
//! into a deterministic per-target delivery schedule the kernel turns into
//! events: when each target receives its interrupt, in target order
//! (ascending CPU id, the order Linux iterates the cpumask).

use crate::costs::CostModel;
use crate::cpumask::{CpuId, CpuMask};
use crate::topology::Topology;
use latr_sim::{Nanos, Time};

/// The IPI delivery fabric for one machine.
#[derive(Debug, Clone)]
pub struct IpiFabric {
    topology: Topology,
    costs: CostModel,
}

impl IpiFabric {
    /// Creates a fabric over the given topology and cost model.
    pub fn new(topology: Topology, costs: CostModel) -> Self {
        IpiFabric { topology, costs }
    }

    /// The topology this fabric routes over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost model in use.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Computes the delivery schedule for a multicast from `initiator` to
    /// every CPU in `targets` (the initiator itself is skipped if present),
    /// starting at `start`: appends `(target, delivery time)` pairs to
    /// `deliveries`, a caller-owned buffer so a reused one makes the call
    /// allocation-free. Returns when the sender finishes programming the
    /// last ICR write and can proceed to wait for ACKs.
    pub fn multicast(
        &self,
        initiator: CpuId,
        targets: &CpuMask,
        start: Time,
        deliveries: &mut Vec<(CpuId, Time)>,
    ) -> Time {
        let mut send_clock = start;
        for target in targets.iter() {
            if target == initiator {
                continue;
            }
            let hops = self.topology.cpu_hops(initiator, target);
            send_clock += self.costs.ipi_send(hops);
            let delivered = send_clock + self.costs.ipi_wire(hops);
            deliveries.push((target, delivered));
        }
        send_clock
    }

    /// ACK latency from `responder` back to `initiator` (a cache-line
    /// transfer via the coherence protocol).
    pub fn ack_latency(&self, initiator: CpuId, responder: CpuId) -> Nanos {
        self.costs.ack(self.topology.cpu_hops(initiator, responder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MachinePreset;

    fn fabric(preset: MachinePreset) -> IpiFabric {
        IpiFabric::new(Topology::preset(preset), CostModel::calibrated())
    }

    /// The deliveries of a multicast and the sender's free time.
    fn schedule(f: &IpiFabric, targets: &CpuMask, start: Time) -> (Vec<(CpuId, Time)>, Time) {
        let mut deliveries = Vec::new();
        let sender_free = f.multicast(CpuId(0), targets, start, &mut deliveries);
        (deliveries, sender_free)
    }

    /// The latest delivery instant.
    fn last_delivery(deliveries: &[(CpuId, Time)]) -> u64 {
        deliveries
            .iter()
            .map(|&(_, t)| t.as_ns())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn empty_multicast_is_free() {
        let f = fabric(MachinePreset::Commodity2S16C);
        let (deliveries, sender_free) = schedule(&f, &CpuMask::empty(), Time::from_ns(100));
        assert!(deliveries.is_empty());
        assert_eq!(sender_free, Time::from_ns(100));
    }

    #[test]
    fn initiator_is_skipped() {
        let f = fabric(MachinePreset::Commodity2S16C);
        let mut m = CpuMask::empty();
        m.set(CpuId(0));
        m.set(CpuId(1));
        let (deliveries, _) = schedule(&f, &m, Time::ZERO);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, CpuId(1));
    }

    #[test]
    fn sends_serialize_at_sender() {
        let f = fabric(MachinePreset::Commodity2S16C);
        let m = CpuMask::first_n(16);
        let (deliveries, sender_free) = schedule(&f, &m, Time::ZERO);
        assert_eq!(deliveries.len(), 15);
        // Deliveries to successive same-socket targets are spaced by at
        // least the send serialization cost.
        let d1 = deliveries[0].1;
        let d2 = deliveries[1].1;
        assert!(d2 - d1 >= f.costs().ipi_send_same_socket);
        // Sender stays busy for the whole send train.
        assert!(sender_free.as_ns() >= 15 * f.costs().ipi_send_same_socket);
    }

    #[test]
    fn cross_socket_delivery_is_slower() {
        let f = fabric(MachinePreset::Commodity2S16C);
        let mut near = CpuMask::empty();
        near.set(CpuId(1));
        let mut far = CpuMask::empty();
        far.set(CpuId(9)); // other socket
        let (near, _) = schedule(&f, &near, Time::ZERO);
        let (far, _) = schedule(&f, &far, Time::ZERO);
        assert!(far[0].1 > near[0].1);
    }

    #[test]
    fn sixteen_core_schedule_is_about_6us() {
        let f = fabric(MachinePreset::Commodity2S16C);
        let last = last_delivery(&schedule(&f, &CpuMask::first_n(16), Time::ZERO).0);
        // Delivery alone (without handler + ACK) is a bit under the paper's
        // 6 µs end-to-end number.
        assert!((4_000..6_500).contains(&last), "last delivery {last}");
    }

    #[test]
    fn hundred_twenty_core_schedule_is_about_80us() {
        let f = fabric(MachinePreset::LargeNuma8S120C);
        let last = last_delivery(&schedule(&f, &CpuMask::first_n(120), Time::ZERO).0);
        assert!((65_000..90_000).contains(&last), "last delivery {last}");
    }

    #[test]
    fn ack_latencies() {
        let f = fabric(MachinePreset::Commodity2S16C);
        assert_eq!(f.ack_latency(CpuId(0), CpuId(1)), f.costs().ack_same_socket);
        assert_eq!(
            f.ack_latency(CpuId(0), CpuId(9)),
            f.costs().ack_cross_socket
        );
    }
}
