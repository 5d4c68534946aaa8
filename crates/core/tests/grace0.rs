use latr_core::rt::{RtRegistry, ShardedReclaimer};

#[test]
fn grace_zero_defer_after_collect_is_collectable_at_quiescence() {
    let reg = RtRegistry::new(1, 8);
    let rec: ShardedReclaimer<u32> = ShardedReclaimer::new(0, 1);
    // A collect at frontier 0 on an empty shard.
    assert!(rec.collect(&reg, 0).is_empty());
    // grace=0 defer: due = tick_of(0) + 0 = 0, already elapsed.
    rec.defer(&reg, 0, 42);
    // min_tick is already >= due(0): reference engine would hand it back now.
    reg.advance_frontier();
    let got = rec.collect(&reg, 0);
    assert_eq!(
        got,
        vec![42],
        "item parked past its due; pending={}",
        rec.pending_count()
    );
}
