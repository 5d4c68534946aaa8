//! AutoNUMA: periodic address-space scanning and page migration (§2.1,
//! §4.3).
//!
//! A background scanner walks each process' anonymous pages in chunks,
//! turning present PTEs into *NUMA-hint* PTEs (Linux's `change_prot_numa`).
//! The next access takes a hint fault; if a page is touched twice in a row
//! from the same remote node, it migrates there. In stock Linux every
//! hint-unmap is a synchronous shootdown; Latr records a state instead and
//! lets the first sweeping core perform the unmap.

use latr_arch::NodeId;
use latr_mem::{MapKind, MmId, MmStruct, Vpn};
use latr_sim::{Nanos, MILLISECOND};
use std::collections::HashMap;

/// AutoNUMA configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NumaConfig {
    /// Whether balancing runs at all (§6.1 disables it except for the
    /// Fig. 11 experiments).
    pub enabled: bool,
    /// How often each address space is visited.
    pub scan_period: Nanos,
    /// Pages hint-unmapped per visit.
    pub pages_per_scan: usize,
    /// Retry interval for hint faults blocked by an in-flight lazy unmap.
    pub fault_retry: Nanos,
}

impl NumaConfig {
    /// Balancing off.
    pub fn disabled() -> Self {
        NumaConfig {
            enabled: false,
            scan_period: 10 * MILLISECOND,
            pages_per_scan: 0,
            fault_retry: MILLISECOND / 10,
        }
    }
}

/// Internal scanning/migration state (owned by the machine).
#[derive(Debug)]
pub(crate) struct NumaRuntime {
    config: NumaConfig,
    cursors: HashMap<u32, u64>,
    fault_history: HashMap<(u32, u64), NodeId>,
}

impl NumaRuntime {
    pub(crate) fn new(config: NumaConfig) -> Self {
        NumaRuntime {
            config,
            cursors: HashMap::new(),
            fault_history: HashMap::new(),
        }
    }

    pub(crate) fn config(&self) -> &NumaConfig {
        &self.config
    }

    /// Picks the next chunk of anonymous, present, un-hinted pages of `mm`
    /// to hint-unmap, advancing (and wrapping) the per-mm cursor.
    pub(crate) fn next_scan_batch(&mut self, mm_id: MmId, mm: &MmStruct) -> Vec<Vpn> {
        if !self.config.enabled || self.config.pages_per_scan == 0 {
            return Vec::new();
        }
        let cursor = self.cursors.entry(mm_id.0).or_insert(0);
        let mut batch = Vec::with_capacity(self.config.pages_per_scan);
        let mut wrapped = false;
        let mut pos = *cursor;
        'outer: loop {
            for vma in mm.vmas.iter() {
                if !matches!(vma.kind, MapKind::Anon) {
                    continue;
                }
                for vpn in vma.range.iter() {
                    if vpn.0 < pos {
                        continue;
                    }
                    if let Some(pte) = mm.page_table.lookup(vpn) {
                        if !pte.flags.numa_hint {
                            batch.push(vpn);
                            if batch.len() >= self.config.pages_per_scan {
                                *cursor = vpn.0 + 1;
                                break 'outer;
                            }
                        }
                    }
                }
            }
            if wrapped || batch.len() >= self.config.pages_per_scan {
                if let Some(last) = batch.last() {
                    *cursor = last.0 + 1;
                } else {
                    *cursor = 0;
                }
                break;
            }
            // Wrap once to the beginning of the address space.
            wrapped = true;
            pos = 0;
        }
        batch
    }

    /// The two-touch migration filter: migrate when the same remote node
    /// faults a page twice in a row (§2.1).
    pub(crate) fn should_migrate(
        &mut self,
        mm: MmId,
        vpn: Vpn,
        accessing: NodeId,
        home: NodeId,
    ) -> bool {
        let key = (mm.0, vpn.0);
        if accessing == home {
            self.fault_history.remove(&key);
            return false;
        }
        match self.fault_history.get(&key) {
            Some(&last) if last == accessing => {
                self.fault_history.remove(&key);
                true
            }
            _ => {
                self.fault_history.insert(key, accessing);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latr_mem::{Pfn, Prot, PteFlags};

    fn runtime() -> NumaRuntime {
        NumaRuntime::new(NumaConfig {
            enabled: true,
            scan_period: MILLISECOND,
            pages_per_scan: 4,
            fault_retry: 1000,
        })
    }

    fn mm_with_pages(n: u64) -> MmStruct {
        let mut mm = MmStruct::new(MmId(0));
        let range = mm.mmap_anon(n, Prot::READ_WRITE);
        for (i, vpn) in range.iter().enumerate() {
            mm.page_table.map(vpn, Pfn(i as u64), PteFlags::default());
        }
        mm
    }

    #[test]
    fn disabled_scan_yields_nothing() {
        let mut rt = NumaRuntime::new(NumaConfig::disabled());
        let mm = mm_with_pages(8);
        assert!(rt.next_scan_batch(MmId(0), &mm).is_empty());
    }

    #[test]
    fn scan_walks_in_chunks_and_wraps() {
        let mut rt = runtime();
        let mm = mm_with_pages(6);
        let b1 = rt.next_scan_batch(MmId(0), &mm);
        assert_eq!(b1.len(), 4);
        let b2 = rt.next_scan_batch(MmId(0), &mm);
        // Remaining 2 pages, then wraps to the front for 2 more.
        assert_eq!(b2.len(), 4);
        assert_ne!(b1[0], b2[0]);
    }

    #[test]
    fn scan_skips_already_hinted_pages() {
        let mut rt = runtime();
        let mut mm = mm_with_pages(4);
        for vpn in mm
            .vmas
            .iter()
            .next()
            .unwrap()
            .range
            .iter()
            .collect::<Vec<_>>()
        {
            mm.page_table.update(vpn, |p| p.flags.numa_hint = true);
        }
        assert!(rt.next_scan_batch(MmId(0), &mm).is_empty());
    }

    #[test]
    fn two_touch_migration_rule() {
        let mut rt = runtime();
        let mm = MmId(0);
        let vpn = Vpn(7);
        // First remote touch: no migration yet.
        assert!(!rt.should_migrate(mm, vpn, NodeId(1), NodeId(0)));
        // Second touch from the same remote node: migrate.
        assert!(rt.should_migrate(mm, vpn, NodeId(1), NodeId(0)));
        // History cleared: next touch starts over.
        assert!(!rt.should_migrate(mm, vpn, NodeId(1), NodeId(0)));
    }

    #[test]
    fn local_touch_resets_history() {
        let mut rt = runtime();
        let mm = MmId(0);
        let vpn = Vpn(7);
        assert!(!rt.should_migrate(mm, vpn, NodeId(1), NodeId(0)));
        // Local access clears the streak.
        assert!(!rt.should_migrate(mm, vpn, NodeId(0), NodeId(0)));
        assert!(!rt.should_migrate(mm, vpn, NodeId(1), NodeId(0)));
        assert!(rt.should_migrate(mm, vpn, NodeId(1), NodeId(0)));
    }

    #[test]
    fn alternating_nodes_never_migrate() {
        let mut rt = runtime();
        let mm = MmId(0);
        let vpn = Vpn(9);
        for i in 0..10 {
            let node = NodeId(1 + (i % 2) as u8);
            assert!(!rt.should_migrate(mm, vpn, node, NodeId(0)));
        }
    }
}
