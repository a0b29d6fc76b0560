//! [`TaskletCtx`]: the cycle-charging window through which running tasklet
//! code touches the DPU.
//!
//! Every memory access, compute block and atomic-register operation advances
//! the tasklet's virtual clock according to the [`crate::LatencyModel`] and
//! attributes the cycles to the current [`Phase`]. The STM library switches
//! phases as a transaction moves between reading, writing, validating and
//! committing, which is how the paper's time-breakdown plots are produced.
//!
//! # When the statistics settle
//!
//! A context adds the cycles it charges to one running sum for the current
//! (phase, in-attempt) pair and writes that sum into the tasklet's
//! [`TaskletStats`] only when the pair changes — at a phase switch, at
//! `begin_attempt` and at an attempt's commit or abort — and when the
//! context is dropped, which ends every `finish`. Integer sums commute, so
//! every bucket ends up exactly where immediate charging would have put it;
//! the phase breakdown just lags by at most one open sum while the context
//! lives. The MRAM DMA counters and the back-off overlay are written
//! immediately and are always current: `pim_stm`'s platform reads the DMA
//! counters in the middle of a step.

use crate::dpu::Dpu;
use crate::latency::Cycles;
use crate::mem::{Addr, Tier};
use crate::stats::{Phase, TaskletStats};

/// Execution context handed to a tasklet for the duration of one program
/// step.
#[derive(Debug)]
pub struct TaskletCtx<'a> {
    dpu: &'a mut Dpu,
    stats: &'a mut TaskletStats,
    tasklet_id: usize,
    now: Cycles,
    phase: Phase,
    transactional: bool,
    /// Cycles one instruction occupies this tasklet at `active_tasklets`.
    instr: Cycles,
    /// Cycles charged to (`phase`, `transactional`) and not yet written to
    /// `stats` (see the module docs).
    pending: Cycles,
}

impl<'a> TaskletCtx<'a> {
    /// Creates a context for `tasklet_id` whose clock currently reads `now`.
    ///
    /// `active_tasklets` is the number of tasklets still running on the DPU;
    /// it determines instruction-issue contention beyond the pipeline depth.
    #[inline]
    pub fn new(
        dpu: &'a mut Dpu,
        stats: &'a mut TaskletStats,
        tasklet_id: usize,
        active_tasklets: usize,
        now: Cycles,
    ) -> Self {
        let active_tasklets = active_tasklets.max(1);
        let instr = dpu.latency().instruction_cycles(active_tasklets);
        TaskletCtx {
            dpu,
            stats,
            tasklet_id,
            now,
            phase: Phase::OtherExec,
            transactional: false,
            instr,
            pending: 0,
        }
    }

    /// Identifier of the tasklet executing this step (0-based).
    pub fn tasklet_id(&self) -> usize {
        self.tasklet_id
    }

    /// Current virtual time of this tasklet, in cycles.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The phase to which subsequent cycles will be attributed.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Switches the accounting phase, returning the previous one so callers
    /// can restore it.
    #[inline]
    pub fn set_phase(&mut self, phase: Phase) -> Phase {
        if phase != self.phase {
            self.settle();
        }
        std::mem::replace(&mut self.phase, phase)
    }

    /// Marks the start of a transaction attempt: subsequent cycles are
    /// buffered so they can be re-attributed to wasted time if the attempt
    /// aborts.
    pub fn begin_attempt(&mut self) {
        self.settle();
        self.transactional = true;
    }

    /// Resolves the in-flight attempt as committed.
    pub fn commit_attempt(&mut self) {
        self.settle();
        self.transactional = false;
        self.stats.resolve_commit();
    }

    /// Resolves the in-flight attempt as aborted: all buffered cycles become
    /// wasted time.
    pub fn abort_attempt(&mut self) {
        self.settle();
        self.transactional = false;
        self.stats.resolve_abort(None);
    }

    /// Resolves the in-flight attempt as aborted under an abort-reason code
    /// (see [`crate::stats::ProfileCore::resolve_abort`]; the STM layer
    /// passes its `AbortReason::index()`).
    pub fn abort_attempt_coded(&mut self, code: usize) {
        self.settle();
        self.transactional = false;
        self.stats.resolve_abort(Some(code));
    }

    /// Busy-waits for `instructions` instructions, recording the elapsed
    /// cycles as back-off / lock-wait time on top of the regular phase
    /// attribution.
    #[inline]
    pub fn spin_wait(&mut self, instructions: u64) {
        let before = self.now;
        self.compute(instructions);
        let waited = self.now - before;
        self.stats.note_backoff(waited);
    }

    /// Whether a transaction attempt is currently being accounted.
    pub fn in_attempt(&self) -> bool {
        self.transactional
    }

    /// Charges `cycles` to the current phase and advances the tasklet clock.
    #[inline]
    pub fn charge(&mut self, cycles: Cycles) {
        self.now += cycles;
        self.pending += cycles;
    }

    /// Writes the cycles pending for the current (phase, in-attempt) pair
    /// into the statistics record.
    #[inline]
    fn settle(&mut self) {
        let cycles = std::mem::take(&mut self.pending);
        if cycles == 0 {
            return;
        }
        if self.transactional {
            self.stats.charge_attempt(self.phase, cycles);
        } else {
            self.stats.charge_direct(self.phase, cycles);
        }
    }

    /// Models `instructions` pipeline instructions of computation.
    #[inline]
    pub fn compute(&mut self, instructions: u64) {
        self.charge(self.instr * instructions);
    }

    /// Queues one `words`-word DMA on the shared MRAM port once the issuing
    /// instructions (`issue` cycles from now) have executed, and returns the
    /// cycles from now until the transfer completes.
    #[inline]
    fn mram_dma_cost(&mut self, issue: Cycles, words: u32) -> Cycles {
        self.stats.note_mram_dma(words);
        let transfer = self.dpu.latency().mram_transfer_cycles(words);
        let dma_start = (self.now + issue).max(self.dpu.mram_port_free_at());
        let dma_done = dma_start + transfer;
        self.dpu.set_mram_port_free_at(dma_done);
        dma_done - self.now
    }

    #[inline]
    fn access_cost(&mut self, tier: Tier, words: u32) -> Cycles {
        match tier {
            Tier::Wram => self.instr,
            // The issuing instruction executes, then the DMA waits for the
            // shared MRAM port.
            Tier::Mram => self.mram_dma_cost(self.instr, words),
        }
    }

    /// Transactionally-timed load of one word.
    #[inline]
    pub fn load(&mut self, addr: Addr) -> u64 {
        let cost = self.access_cost(addr.tier, 1);
        self.charge(cost);
        self.dpu.memory(addr.tier).read(addr.word)
    }

    /// Transactionally-timed store of one word.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: u64) {
        let cost = self.access_cost(addr.tier, 1);
        self.charge(cost);
        self.dpu.memory_mut(addr.tier).write(addr.word, value);
    }

    /// Transactionally-timed load of `out.len()` consecutive words starting
    /// at `addr`.
    ///
    /// An MRAM block is fetched as **one DMA burst** — the setup cost is paid
    /// once and the streaming cost per word — which is how the UPMEM
    /// `mram_read` helper moves multi-word records. A WRAM block still costs
    /// one instruction per word (the scratchpad has no DMA engine).
    pub fn load_block(&mut self, addr: Addr, out: &mut [u64]) {
        let words = out.len() as u32;
        if words == 0 {
            return;
        }
        let cost = self.block_access_cost(addr.tier, words);
        self.charge(cost);
        self.dpu.memory(addr.tier).read_block(addr.word, out);
    }

    /// Transactionally-timed store of `values` to consecutive words starting
    /// at `addr`, charged like [`TaskletCtx::load_block`].
    pub fn store_block(&mut self, addr: Addr, values: &[u64]) {
        let words = values.len() as u32;
        if words == 0 {
            return;
        }
        let cost = self.block_access_cost(addr.tier, words);
        self.charge(cost);
        self.dpu.memory_mut(addr.tier).write_block(addr.word, values);
    }

    fn block_access_cost(&mut self, tier: Tier, words: u32) -> Cycles {
        match tier {
            Tier::Wram => self.instr * u64::from(words),
            Tier::Mram => self.access_cost(Tier::Mram, words),
        }
    }

    /// Copies `words` words from `src` to `dst`, charging one block DMA per
    /// MRAM side touched (models the UPMEM `mram_read`/`mram_write` DMA
    /// helpers used to stage data into WRAM). A zero-word copy is a no-op,
    /// like a zero-word [`TaskletCtx::load_block`].
    pub fn copy_block(&mut self, src: Addr, dst: Addr, words: u32) {
        if words == 0 {
            return;
        }
        let mram_sides = u32::from(src.tier == Tier::Mram) + u32::from(dst.tier == Tier::Mram);
        let mut cost = self.instr;
        for _ in 0..mram_sides {
            cost = self.mram_dma_cost(cost, words);
        }
        // WRAM-to-WRAM copies still execute one instruction per word.
        if mram_sides == 0 {
            cost = self.instr * u64::from(words);
        }
        self.charge(cost);
        self.dpu.copy_block(src, dst, words);
    }

    /// Attempts to acquire the hardware logical lock hashed from `key`.
    ///
    /// On real hardware a failed acquire blocks the tasklet; in the
    /// discrete-event simulator steps are atomic, so the caller (the STM
    /// library keeps its critical sections within a single operation) decides
    /// how to react to a `false` return.
    #[inline]
    pub fn try_acquire(&mut self, key: u64) -> bool {
        self.compute(self.dpu.latency().atomic_op_instructions);
        self.dpu.atomic_register_mut().try_acquire(key, self.tasklet_id)
    }

    /// Releases the hardware logical lock hashed from `key`.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held (see [`crate::AtomicBitRegister`]).
    #[inline]
    pub fn release(&mut self, key: u64) {
        self.compute(self.dpu.latency().atomic_op_instructions);
        self.dpu.atomic_register_mut().release(key);
    }

    /// Direct, *untimed* access to the DPU. Intended for assertions inside
    /// tests and for program bookkeeping that does not correspond to DPU
    /// instructions; regular workload code should use the timed accessors.
    pub fn dpu(&self) -> &Dpu {
        self.dpu
    }

    /// The statistics record of this tasklet.
    ///
    /// The MRAM DMA counters and the back-off overlay are always current.
    /// The phase breakdown and the attempt buffer lack the cycles charged
    /// since the last phase switch or attempt boundary; they settle there
    /// and when the context is dropped (see the module docs).
    pub fn stats(&self) -> &TaskletStats {
        self.stats
    }

    /// Consumes the context, returning the advanced clock value; dropping
    /// the context settles its pending cycles.
    #[inline]
    pub(crate) fn finish(self) -> Cycles {
        self.now
    }
}

impl Drop for TaskletCtx<'_> {
    /// Settles the pending cycles (see the module docs).
    #[inline]
    fn drop(&mut self) {
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::DpuConfig;
    use crate::rng::SimRng;
    use crate::stats::ABORT_CODE_SLOTS;
    use proptest::prelude::*;

    fn setup() -> (Dpu, TaskletStats) {
        (Dpu::new(DpuConfig::small()), TaskletStats::new())
    }

    #[test]
    fn wram_access_is_cheaper_than_mram() {
        let (mut dpu, mut stats) = setup();
        let w = dpu.alloc(Tier::Wram, 1).unwrap();
        let m = dpu.alloc(Tier::Mram, 1).unwrap();
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        ctx.store(w, 1);
        let wram_cost = ctx.now();
        ctx.store(m, 1);
        let mram_cost = ctx.now() - wram_cost;
        assert!(mram_cost > 3 * wram_cost, "MRAM ({mram_cost}) should dwarf WRAM ({wram_cost})");
    }

    #[test]
    fn loads_return_stored_values_and_charge_phase() {
        let (mut dpu, mut stats) = setup();
        let a = dpu.alloc(Tier::Mram, 2).unwrap();
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            ctx.set_phase(Phase::Writing);
            ctx.store(a, 17);
            ctx.set_phase(Phase::Reading);
            assert_eq!(ctx.load(a), 17);
        }
        assert!(stats.breakdown.get(Phase::Reading) > 0);
        assert!(stats.breakdown.get(Phase::Writing) > 0);
    }

    #[test]
    fn mram_port_is_a_shared_resource() {
        let (mut dpu, mut stats0) = setup();
        let mut stats1 = TaskletStats::new();
        let a = dpu.alloc(Tier::Mram, 2).unwrap();
        // Tasklet 0 issues an MRAM access at t=0.
        let mut ctx0 = TaskletCtx::new(&mut dpu, &mut stats0, 0, 2, 0);
        ctx0.load(a);
        let t0_done = ctx0.finish();
        // Tasklet 1 issues at t=0 too, but the port is busy until t0_done's
        // DMA finished, so it must finish strictly later.
        let mut ctx1 = TaskletCtx::new(&mut dpu, &mut stats1, 1, 2, 0);
        ctx1.load(a.offset(1));
        let t1_done = ctx1.finish();
        assert!(t1_done > t0_done);
    }

    #[test]
    fn attempt_buffering_reclassifies_aborted_work() {
        let (mut dpu, mut stats) = setup();
        let a = dpu.alloc(Tier::Wram, 1).unwrap();
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            ctx.begin_attempt();
            ctx.set_phase(Phase::Reading);
            ctx.load(a);
            ctx.abort_attempt();
        }
        assert_eq!(stats.aborts, 1);
        assert_eq!(stats.breakdown.get(Phase::Reading), 0);
        assert!(stats.breakdown.get(Phase::Wasted) > 0);
    }

    #[test]
    fn atomic_register_ops_are_cheap_and_tracked() {
        let (mut dpu, mut stats) = setup();
        let m = dpu.alloc(Tier::Mram, 1).unwrap();
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 3, 1, 0);
        assert!(ctx.try_acquire(0xabc));
        ctx.release(0xabc);
        let t_atomic = ctx.now();
        ctx.load(m);
        let t_mram = ctx.now() - t_atomic;
        assert!(t_atomic < t_mram, "register ops must be much cheaper than MRAM accesses");
        assert_eq!(ctx.dpu().atomic_register().stats().acquires, 1);
    }

    #[test]
    fn block_loads_pay_one_dma_setup_instead_of_n() {
        // Two fresh DPUs so the second measurement does not queue behind the
        // first one's DMA in the shared-port model.
        let (mut dpu, mut stats) = setup();
        let a = dpu.alloc(Tier::Mram, 8).unwrap();
        dpu.poke_block(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // Eight single-word loads: eight DMA setups.
        let word_cost = {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            for i in 0..8 {
                ctx.load(a.offset(i));
            }
            ctx.now()
        };
        let (mut dpu, mut stats) = setup();
        let a = dpu.alloc(Tier::Mram, 8).unwrap();
        dpu.poke_block(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // One 8-word burst: one setup plus streaming.
        let mut buf = [0u64; 8];
        let block_cost = {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            ctx.load_block(a, &mut buf);
            ctx.now()
        };
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(
            block_cost < word_cost / 2,
            "8-word burst ({block_cost}) must amortise setup vs 8 loads ({word_cost})"
        );
    }

    #[test]
    fn mram_dma_setups_are_counted_per_transfer_not_per_word() {
        let (mut dpu, mut stats) = setup();
        let a = dpu.alloc(Tier::Mram, 8).unwrap();
        let w = dpu.alloc(Tier::Wram, 8).unwrap();
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            // Two single-word accesses: two setups, two words.
            ctx.load(a);
            ctx.store(a.offset(1), 5);
            // One 8-word burst: one setup, eight words.
            let mut buf = [0u64; 8];
            ctx.load_block(a, &mut buf);
            // WRAM traffic never touches the MRAM port.
            ctx.store(w, 1);
            ctx.store_block(w, &[1, 2]);
            // A copy with one MRAM side: one more setup.
            ctx.copy_block(a, w, 4);
        }
        assert_eq!(stats.mram_dma_setups, 4);
        assert_eq!(stats.mram_dma_words, 2 + 8 + 4);
    }

    #[test]
    fn block_stores_write_all_words_and_charge_the_port() {
        let (mut dpu, mut stats) = setup();
        let a = dpu.alloc(Tier::Mram, 4).unwrap();
        let free_before = dpu.mram_port_free_at();
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            ctx.store_block(a, &[9, 8, 7, 6]);
            assert!(ctx.now() > 0);
        }
        assert_eq!(dpu.peek_block(a, 4), vec![9, 8, 7, 6]);
        assert!(dpu.mram_port_free_at() > free_before, "the burst must occupy the MRAM port");
    }

    #[test]
    fn wram_block_access_costs_one_instruction_per_word() {
        let (mut dpu, mut stats) = setup();
        let a = dpu.alloc(Tier::Wram, 4).unwrap();
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        ctx.store_block(a, &[1, 2, 3, 4]);
        let instr = ctx.dpu().latency().instruction_cycles(1);
        assert_eq!(ctx.now(), 4 * instr);
    }

    #[test]
    fn copy_block_moves_data_and_charges_dma() {
        let (mut dpu, mut stats) = setup();
        let src = dpu.alloc(Tier::Mram, 8).unwrap();
        let dst = dpu.alloc(Tier::Wram, 8).unwrap();
        dpu.poke_block(src, &[1, 2, 3, 4, 5, 6, 7, 8]);
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            ctx.copy_block(src, dst, 8);
            assert!(ctx.now() > 0);
        }
        assert_eq!(dpu.peek_block(dst, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn compute_scales_with_instruction_count() {
        let (mut dpu, mut stats) = setup();
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        ctx.compute(10);
        let ten = ctx.now();
        ctx.compute(20);
        assert_eq!(ctx.now() - ten, 2 * ten);
    }

    /// Draws one operation from `rng` and applies it to `ctx`: a phase
    /// switch, an attempt boundary, a word or block access in either tier,
    /// a copy, compute, a spin-wait, a lock acquire or release, or an
    /// explicit-phase charge. `held` tracks the lock keys this tasklet owns
    /// so a release always targets a held one.
    fn random_op(rng: &mut SimRng, ctx: &mut TaskletCtx<'_>, held: &mut Vec<u64>) {
        let tier = |rng: &mut SimRng| if rng.next_bool(0.5) { Tier::Wram } else { Tier::Mram };
        let addr = |rng: &mut SimRng, base: u32| {
            let tier = tier(rng);
            Addr { tier, word: base + rng.next_range(8) as u32 }
        };
        let phase = |rng: &mut SimRng| Phase::ALL[rng.next_range(Phase::ALL.len() as u64) as usize];
        match rng.next_range(14) {
            0 => {
                ctx.set_phase(phase(rng));
            }
            1 if ctx.in_attempt() => ctx.commit_attempt(),
            2 if ctx.in_attempt() => {
                ctx.abort_attempt_coded(rng.next_range(ABORT_CODE_SLOTS as u64) as usize)
            }
            3 if ctx.in_attempt() => ctx.abort_attempt(),
            1..=3 => ctx.begin_attempt(),
            4 => {
                ctx.load(addr(rng, 0));
            }
            5 => ctx.store(addr(rng, 0), rng.next_u64()),
            6 => {
                let mut buf = vec![0; rng.next_range(9) as usize];
                ctx.load_block(addr(rng, 0), &mut buf);
            }
            7 => {
                let values = vec![rng.next_u64(); rng.next_range(9) as usize];
                ctx.store_block(addr(rng, 0), &values);
            }
            8 => {
                let (src, dst) = (addr(rng, 0), addr(rng, 16));
                ctx.copy_block(src, dst, rng.next_range(9) as u32);
            }
            9 => ctx.compute(rng.next_range(20)),
            10 => ctx.spin_wait(rng.next_range(20)),
            11 => {
                let key = rng.next_range(64);
                if ctx.try_acquire(key) {
                    held.push(key);
                }
            }
            12 => match held.pop() {
                Some(key) => ctx.release(key),
                None => ctx.compute(1),
            },
            _ => {
                let prev = ctx.set_phase(phase(rng));
                ctx.charge(rng.next_range(100));
                ctx.set_phase(prev);
            }
        }
    }

    /// Runs `ops` seeded random operations on one tasklet and returns its
    /// clock, statistics and the DPU's MRAM-port time. With `span_seed`
    /// the operations run in contexts of 1–12 operations each, every
    /// second one dropped without `finish()`; without it every operation
    /// gets a context of its own, so each charge is settled at once.
    fn run_ops(
        seed: u64,
        ops: usize,
        active: usize,
        span_seed: Option<u64>,
    ) -> (Cycles, TaskletStats, Cycles) {
        let mut dpu = Dpu::new(DpuConfig::small());
        dpu.alloc(Tier::Wram, 32).unwrap();
        dpu.alloc(Tier::Mram, 32).unwrap();
        let mut stats = TaskletStats::new();
        let (mut rng, mut spans) = (SimRng::new(seed), span_seed.map(SimRng::new));
        let (mut now, mut phase, mut in_attempt) = (0, Phase::OtherExec, false);
        let mut held = Vec::new();
        let (mut left, mut contexts) = (ops, 0);
        while left > 0 {
            let span = spans.as_mut().map_or(1, |spans| 1 + spans.next_range(12) as usize);
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, active, now);
            // Carry the open attempt and the phase into the next context,
            // so one attempt's charges span several contexts.
            ctx.set_phase(phase);
            if in_attempt {
                ctx.begin_attempt();
            }
            for _ in 0..span.min(left) {
                random_op(&mut rng, &mut ctx, &mut held);
            }
            left -= span.min(left);
            (phase, in_attempt) = (ctx.phase(), ctx.in_attempt());
            now = ctx.now();
            if span_seed.is_some() && contexts % 2 == 1 {
                drop(ctx);
            } else {
                assert_eq!(ctx.finish(), now);
            }
            contexts += 1;
        }
        (now, stats, dpu.mram_port_free_at())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Accumulating the charges of a (phase, in-attempt) pair and
        /// settling them at the boundaries leaves every clock, phase
        /// bucket, wasted and back-off figure and DMA counter exactly where
        /// settling every charge at once puts it.
        #[test]
        fn charge_accumulation_matches_immediate_settling(
            seed in any::<u64>(),
            span_seed in any::<u64>(),
            active in 1usize..25,
        ) {
            let accumulated = run_ops(seed, 300, active, Some(span_seed));
            let immediate = run_ops(seed, 300, active, None);
            prop_assert_eq!(accumulated.0, immediate.0, "clock");
            // The whole record: breakdown (wasted included), attempt
            // buffer, back-off, DMA setups and words, commits and aborts.
            prop_assert_eq!(&accumulated.1, &immediate.1);
            prop_assert_eq!(accumulated.2, immediate.2, "MRAM port");
        }
    }

    #[test]
    fn zero_word_copies_are_no_ops() {
        let (mut dpu, mut stats) = setup();
        let mram = dpu.alloc(Tier::Mram, 4).unwrap();
        let wram = dpu.alloc(Tier::Wram, 4).unwrap();
        let now = {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            for (src, dst) in [(mram, wram), (wram, mram), (mram, mram.offset(2)), (wram, wram)] {
                ctx.copy_block(src, dst, 0);
            }
            ctx.now()
        };
        assert_eq!(now, 0);
        assert_eq!((stats.mram_dma_setups, stats.mram_dma_words), (0, 0));
        assert_eq!(dpu.mram_port_free_at(), 0);
    }
}
