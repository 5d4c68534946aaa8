//! Machine topology: sockets, cores, NUMA nodes, QPI hop distances.
//!
//! The paper evaluates on two machines (Table 3):
//!
//! | | Commodity data center | Large NUMA |
//! |---|---|---|
//! | Model | E5-2630 v3 | E7-8870 v2 |
//! | Cores | 16 (8 × 2 sockets) | 120 (15 × 8 sockets) |
//! | L1 D-TLB | 64 entries | 64 entries |
//! | L2 TLB | 1024 entries | 512 entries |
//!
//! Both are exposed as [`MachinePreset`]s. The 8-socket machine's QPI fabric
//! is modelled as a twisted hypercube: each socket has three direct links;
//! any other socket is two hops away. This is what produces the paper's
//! observation that IPIs "need two hops to reach the destination CPU" beyond
//! three sockets (Fig. 7).

use crate::cpumask::{CpuId, CpuMask, MAX_CPUS};

/// Index of a CPU socket (package).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SocketId(pub u8);

/// Index of a NUMA memory node. On both paper machines nodes and sockets
/// coincide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u8);

/// The two evaluation machines from Table 3 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachinePreset {
    /// 2-socket, 16-core Xeon E5-2630 v3 — "a widely used configuration in
    /// modern data centers".
    Commodity2S16C,
    /// 8-socket, 120-core Xeon E7-8870 v2 — the large NUMA machine.
    LargeNuma8S120C,
}

/// Physical layout of the simulated machine.
///
/// ```
/// use latr_arch::{Topology, MachinePreset, CpuId};
/// let t = Topology::preset(MachinePreset::Commodity2S16C);
/// assert_eq!(t.num_cpus(), 16);
/// assert_eq!(t.num_sockets(), 2);
/// assert_eq!(t.socket_of(CpuId(0)), t.socket_of(CpuId(7)));
/// assert_ne!(t.socket_of(CpuId(0)), t.socket_of(CpuId(8)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    sockets: u8,
    cores_per_socket: u16,
    l1_dtlb_entries: u16,
    l2_tlb_entries: u16,
}

impl Topology {
    /// Builds an arbitrary topology.
    ///
    /// # Panics
    ///
    /// Panics if the machine would exceed [`MAX_CPUS`] CPUs or has no cores.
    pub fn new(sockets: u8, cores_per_socket: u16) -> Self {
        let total = sockets as usize * cores_per_socket as usize;
        assert!(total > 0, "machine must have at least one core");
        assert!(total <= MAX_CPUS, "machine exceeds {MAX_CPUS} cpus");
        Topology {
            sockets,
            cores_per_socket,
            l1_dtlb_entries: 64,
            l2_tlb_entries: 1024,
        }
    }

    /// One of the paper's Table 3 machines.
    pub fn preset(preset: MachinePreset) -> Self {
        match preset {
            MachinePreset::Commodity2S16C => Topology {
                sockets: 2,
                cores_per_socket: 8,
                l1_dtlb_entries: 64,
                l2_tlb_entries: 1024,
            },
            MachinePreset::LargeNuma8S120C => Topology {
                sockets: 8,
                cores_per_socket: 15,
                l1_dtlb_entries: 64,
                l2_tlb_entries: 512,
            },
        }
    }

    /// Total number of logical CPUs (hyperthreading is disabled, as in the
    /// paper).
    #[inline]
    pub fn num_cpus(&self) -> usize {
        self.sockets as usize * self.cores_per_socket as usize
    }

    /// Number of sockets (= NUMA nodes).
    #[inline]
    pub fn num_sockets(&self) -> usize {
        self.sockets as usize
    }

    /// Number of NUMA memory nodes (one per socket on both paper machines).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_sockets()
    }

    /// L1 D-TLB capacity per core (entries).
    #[inline]
    pub fn l1_dtlb_entries(&self) -> u16 {
        self.l1_dtlb_entries
    }

    /// L2 TLB capacity per core (entries).
    #[inline]
    pub fn l2_tlb_entries(&self) -> u16 {
        self.l2_tlb_entries
    }

    /// The socket a CPU belongs to. CPUs are numbered socket-major:
    /// socket 0 holds CPUs `0..cores_per_socket`, and so on.
    #[inline]
    pub fn socket_of(&self, cpu: CpuId) -> SocketId {
        debug_assert!(cpu.index() < self.num_cpus());
        SocketId((cpu.index() / self.cores_per_socket as usize) as u8)
    }

    /// The NUMA node a CPU belongs to.
    #[inline]
    pub fn node_of(&self, cpu: CpuId) -> NodeId {
        NodeId(self.socket_of(cpu).0)
    }

    /// How many CPUs of `mask` sit on `socket`.
    #[inline]
    pub fn count_on_socket(&self, mask: &CpuMask, socket: SocketId) -> usize {
        let base = socket.0 as usize * self.cores_per_socket as usize;
        mask.count_in(base..base + self.cores_per_socket as usize)
    }

    /// Number of QPI hops between two sockets.
    ///
    /// * same socket → 0;
    /// * 2-socket machine → 1 between the sockets;
    /// * 8-socket machine → sockets form a twisted hypercube where each
    ///   socket is directly linked to three others (those whose index
    ///   differs in exactly one of the three bits); everything else is two
    ///   hops. This matches the paper's observation that the APIC needs two
    ///   hops beyond three sockets.
    pub fn socket_hops(&self, a: SocketId, b: SocketId) -> u8 {
        if a == b {
            return 0;
        }
        if self.sockets <= 2 {
            return 1;
        }
        let xor = (a.0 ^ b.0) as u32;
        if xor.count_ones() == 1 {
            1
        } else {
            2
        }
    }

    /// Number of QPI hops between the sockets of two CPUs.
    #[inline]
    pub fn cpu_hops(&self, a: CpuId, b: CpuId) -> u8 {
        self.socket_hops(self.socket_of(a), self.socket_of(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_preset_matches_table3() {
        let t = Topology::preset(MachinePreset::Commodity2S16C);
        assert_eq!(t.num_cpus(), 16);
        assert_eq!(t.num_sockets(), 2);
        assert_eq!(t.l1_dtlb_entries(), 64);
        assert_eq!(t.l2_tlb_entries(), 1024);
    }

    #[test]
    fn large_numa_preset_matches_table3() {
        let t = Topology::preset(MachinePreset::LargeNuma8S120C);
        assert_eq!(t.num_cpus(), 120);
        assert_eq!(t.num_sockets(), 8);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.l2_tlb_entries(), 512);
    }

    #[test]
    fn socket_major_cpu_numbering() {
        let t = Topology::preset(MachinePreset::LargeNuma8S120C);
        assert_eq!(t.socket_of(CpuId(0)), SocketId(0));
        assert_eq!(t.socket_of(CpuId(14)), SocketId(0));
        assert_eq!(t.socket_of(CpuId(15)), SocketId(1));
        assert_eq!(t.socket_of(CpuId(119)), SocketId(7));
    }

    #[test]
    fn two_socket_hops() {
        let t = Topology::preset(MachinePreset::Commodity2S16C);
        assert_eq!(t.socket_hops(SocketId(0), SocketId(0)), 0);
        assert_eq!(t.socket_hops(SocketId(0), SocketId(1)), 1);
    }

    #[test]
    fn eight_socket_hypercube_hops() {
        let t = Topology::preset(MachinePreset::LargeNuma8S120C);
        // Direct neighbours differ in one bit.
        assert_eq!(t.socket_hops(SocketId(0), SocketId(1)), 1);
        assert_eq!(t.socket_hops(SocketId(0), SocketId(2)), 1);
        assert_eq!(t.socket_hops(SocketId(0), SocketId(4)), 1);
        // Everything else is two hops.
        assert_eq!(t.socket_hops(SocketId(0), SocketId(3)), 2);
        assert_eq!(t.socket_hops(SocketId(0), SocketId(7)), 2);
        assert_eq!(t.socket_hops(SocketId(5), SocketId(2)), 2);
    }

    #[test]
    fn hops_are_symmetric() {
        let t = Topology::preset(MachinePreset::LargeNuma8S120C);
        for a in 0..8u8 {
            for b in 0..8u8 {
                assert_eq!(
                    t.socket_hops(SocketId(a), SocketId(b)),
                    t.socket_hops(SocketId(b), SocketId(a))
                );
            }
        }
    }

    #[test]
    fn cpu_hops_follow_sockets() {
        let t = Topology::preset(MachinePreset::LargeNuma8S120C);
        assert_eq!(t.cpu_hops(CpuId(0), CpuId(1)), 0);
        assert_eq!(t.cpu_hops(CpuId(0), CpuId(16)), 1);
        // CPU 60 is on socket 4; 0 ^ 4 has one bit set → direct link.
        assert_eq!(t.cpu_hops(CpuId(0), CpuId(60)), 1);
    }

    #[test]
    fn cpu_hops_two_hop_example() {
        let t = Topology::preset(MachinePreset::LargeNuma8S120C);
        // CPU 45 is on socket 3; 0 ^ 3 has two bits set → 2 hops.
        assert_eq!(t.socket_of(CpuId(45)), SocketId(3));
        assert_eq!(t.cpu_hops(CpuId(0), CpuId(45)), 2);
    }

    #[test]
    fn custom_topology_bounds() {
        let t = Topology::new(4, 4);
        assert_eq!(t.num_cpus(), 16);
        assert_eq!(t.socket_hops(SocketId(0), SocketId(3)), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_topology_panics() {
        let _ = Topology::new(8, 64);
    }
}
