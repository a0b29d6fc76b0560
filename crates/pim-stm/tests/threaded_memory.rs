//! A threaded DPU holds what its program allocates, not its capacity: the
//! banks of a 64 KB / 64 MB DPU start empty and grow by the words each
//! allocation hands out. A DPU that zeroed its banks up front held 8 MB
//! before its first transaction. Shown from outside with a global allocator
//! that tracks live bytes (the crate itself denies `unsafe`, so the
//! allocator cannot sit in a unit test), which is why this is a test binary
//! of its own with a single test.

use pim_sim::{SimRng, Tier};
use pim_stm::threaded::ThreadedDpu;
use pim_stm::{MetadataPlacement, StmConfig, StmKind, TxOps};

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const TASKLETS: usize = 2;
/// An ArrayBench-shaped array: a read-mostly region, then an update region.
const READ_WORDS: u32 = 1_024;
const UPDATE_WORDS: u32 = 4_096;
const TXS_PER_TASKLET: usize = 200;

#[test]
fn a_threaded_dpu_holds_the_words_its_program_allocates() {
    let config = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Mram);
    let before = counting_alloc::reset_peak();

    let mut dpu = ThreadedDpu::new(config).expect("metadata fits");
    let array = dpu.alloc(Tier::Mram, READ_WORDS + UPDATE_WORDS).unwrap();
    let report = dpu
        .run(TASKLETS, |mut tx| {
            let mut rng = SimRng::new(7).fork(tx.tasklet_id() as u64);
            for _ in 0..TXS_PER_TASKLET {
                let read = rng.next_range(u64::from(READ_WORDS - 8)) as u32;
                let updates: [u32; 4] = std::array::from_fn(|_| {
                    READ_WORDS + rng.next_range(u64::from(UPDATE_WORDS)) as u32
                });
                tx.transaction(|view| {
                    let mut record = [0u64; 8];
                    view.read_words(array.offset(read), &mut record)?;
                    for at in updates {
                        let v = view.read_word(array.offset(at))?;
                        view.write_word(array.offset(at), v + 1)?;
                    }
                    Ok(())
                });
            }
        })
        .unwrap();
    assert_eq!(report.commits, (TASKLETS * TXS_PER_TASKLET) as u64);
    let updated: u64 = (0..UPDATE_WORDS).map(|i| dpu.peek(array.offset(READ_WORDS + i))).sum();
    assert_eq!(updated, 4 * report.commits);
    let peak = counting_alloc::peak_bytes() - before;

    // The words the program allocated: the shared metadata, each tasklet's
    // logs and the array.
    let words = config.shared_metadata_words()
        + config.per_tasklet_metadata_words() * TASKLETS as u32
        + READ_WORDS
        + UPDATE_WORDS;
    let banks = words as usize * std::mem::size_of::<u64>();
    // A bank that grows by doubling holds at most twice its words, and
    // three times while a reallocation moves them; the rest of the run —
    // threads, profiles, the descriptors' scratch — fits in 64 KB.
    let bound = 3 * banks + 64 * 1024;
    assert!(
        peak <= bound,
        "{peak} bytes live at the peak for {words} allocated words ({banks} bytes): a threaded \
         DPU must hold what its program allocates, not its capacity (bound {bound} bytes)"
    );
    assert!(bound < 1 << 20, "the bound {bound} must stay well under a megabyte");
}
