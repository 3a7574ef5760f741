//! Property test: the lazy [`SlotMap`] hands out slots in exactly the
//! order of an eagerly pre-filled free list — released slots LIFO first,
//! then never-used slots in ascending order — and runs dry at
//! `SLOTS_PER_BUFFER`.

use proptest::prelude::*;
use zombieland_mem::buffer::{BufferId, RemoteSlot, SlotMap, SLOTS_PER_BUFFER};

/// The reference: every slot number listed up front, popped from the end.
struct EagerSlots {
    free: Vec<u32>,
    used: u64,
}

impl EagerSlots {
    fn new() -> Self {
        EagerSlots {
            free: (0..SLOTS_PER_BUFFER as u32).rev().collect(),
            used: 0,
        }
    }

    fn take(&mut self) -> Option<u32> {
        let slot = self.free.pop()?;
        self.used += 1;
        Some(slot)
    }

    fn release(&mut self, slot: u32) {
        self.used -= 1;
        self.free.push(slot);
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Take this many slots (past exhaustion, too).
    Take(u32),
    /// Release this many held slots, starting at a pseudo-random one.
    Release { at: usize, count: usize },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..8).prop_map(Op::Take),
            (4_000u32..17_000).prop_map(Op::Take),
            ((0usize..1 << 16), (1usize..40)).prop_map(|(at, count)| Op::Release { at, count }),
            ((0usize..1 << 16), (1_000usize..9_000))
                .prop_map(|(at, count)| Op::Release { at, count }),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lazy_slots_match_eager_free_list(ops in ops()) {
        let buffer = BufferId::new(7);
        let mut lazy = SlotMap::new(buffer);
        let mut eager = EagerSlots::new();
        // Slots currently taken, in take order.
        let mut held: Vec<u32> = Vec::new();
        for op in &ops {
            match *op {
                Op::Take(n) => {
                    for _ in 0..n {
                        let want = eager.take();
                        let got = lazy.take();
                        prop_assert_eq!(got.map(|s| s.slot), want);
                        match got {
                            Some(s) => {
                                prop_assert_eq!(s.buffer, buffer);
                                held.push(s.slot);
                            }
                            None => prop_assert_eq!(lazy.used_slots(), SLOTS_PER_BUFFER),
                        }
                    }
                }
                Op::Release { at, count } => {
                    for _ in 0..count.min(held.len()) {
                        let slot = held.swap_remove(at % held.len());
                        eager.release(slot);
                        lazy.release(RemoteSlot { buffer, slot });
                    }
                }
            }
            prop_assert_eq!(lazy.free_slots(), eager.free.len() as u64);
            prop_assert_eq!(lazy.used_slots(), eager.used);
            prop_assert_eq!(lazy.used_slots() + lazy.free_slots(), SLOTS_PER_BUFFER);
            prop_assert_eq!(lazy.is_empty(), held.is_empty());
        }
    }
}

#[test]
fn exhaustion_then_lifo_reuse() {
    let buffer = BufferId::new(1);
    let mut m = SlotMap::new(buffer);
    for want in 0..SLOTS_PER_BUFFER as u32 {
        assert_eq!(m.take().map(|s| s.slot), Some(want));
    }
    assert!(m.take().is_none());
    assert_eq!(m.free_slots(), 0);
    for slot in [5, 9000, 17] {
        m.release(RemoteSlot { buffer, slot });
    }
    assert_eq!(m.free_slots(), 3);
    let again: Vec<u32> = std::iter::from_fn(|| m.take().map(|s| s.slot)).collect();
    assert_eq!(again, [17, 9000, 5]);
    assert!(m.take().is_none());
}
