//! Bit-for-bit golden of `BlockPool` under seeded engine-like traffic.
//!
//! The traffic admits, grows, releases and restores requests against a small
//! pool, so eviction runs on almost every allocation. It covers shared
//! prefixes ending mid-block, contents whose prefix and lineage tags are
//! equal, copy-on-write partial matches, re-acquiring a released chain (a
//! preemption restore) and counted grants mixed with named blocks.
//!
//! Each case pins a digest of every block id `alloc` returns (which exposes
//! the eviction order and free-list reuse), every `acquire_prefix` result,
//! every `extend_index` count, every `peek_prefix` probe and the pool
//! counters after each operation. A change to the pool's internals must leave
//! them intact; a mismatch prints the new block verbatim.
//!
//! A second test checks the eviction order differentially: every allocation
//! of `n` blocks must hand out the same ids, and leave the same counters, as
//! `n` one-block allocations on a copy of the pool. A one-block allocation
//! evicts a single leaf off the LRU heap, so it never takes the shortcut that
//! drains a chain without the heap.

use llm_serving::{
    blocks_for, BlockId, BlockPool, Cursor, PromptContent, SplitMix64, BLOCK_TOKENS,
};

/// FNV-1a over 64-bit words: order-sensitive, so a reordered eviction or a
/// different reused block id changes it.
struct Digest(u64);

impl Digest {
    fn add(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn blocks(&mut self, blocks: &[BlockId]) {
        self.add(blocks.len() as u64);
        for b in blocks {
            self.add(b.index() as u64);
        }
    }
}

/// One live request: its stream, held blocks and indexing progress.
struct Live {
    content: PromptContent,
    tokens: usize,
    blocks: Vec<BlockId>,
    cursor: Cursor,
    indexed: usize,
    stalled: bool,
}

struct Traffic {
    pool: BlockPool,
    rng: SplitMix64,
    digest: Digest,
    live: Vec<Live>,
    /// Released requests a later step restores, as after a preemption.
    parked: Vec<(PromptContent, usize)>,
    counted: Vec<usize>,
    next_lineage: u64,
    /// Longest prompt, in blocks.
    max_blocks: usize,
    /// Check each allocation against one-block allocations on a copy.
    differential: bool,
    /// Allocations that evicted more than one block.
    multi_evictions: usize,
    admits: usize,
    refusals: usize,
    cow_matches: usize,
    restores: usize,
}

impl Traffic {
    fn new(capacity_blocks: usize, seed: u64) -> Self {
        Traffic {
            pool: BlockPool::new(capacity_blocks * BLOCK_TOKENS),
            rng: SplitMix64::seed_from_u64(seed),
            digest: Digest(0xcbf2_9ce4_8422_2325),
            live: Vec::new(),
            parked: Vec::new(),
            counted: Vec::new(),
            next_lineage: 1_000,
            max_blocks: 12,
            differential: false,
            multi_evictions: 0,
            admits: 0,
            refusals: 0,
            cow_matches: 0,
            restores: 0,
        }
    }

    /// A request stream: one of four system prompts ending mid-block (or
    /// none), then a fresh lineage, a recent lineage (a follow-up turn) or
    /// a prefix tag — its own, so the whole stream is under one tag, or for
    /// a stream without a prompt the first group's, so it shares that
    /// group's blocks.
    fn content(&mut self) -> PromptContent {
        let group = self.rng.next_usize(5) as u64;
        let lineage = match self.rng.next_usize(4) {
            0 | 1 => {
                self.next_lineage += 1;
                self.next_lineage
            }
            2 => self.next_lineage - self.rng.next_usize(6) as u64,
            _ => 7 + group % 4,
        };
        if group == 4 {
            PromptContent::unique(lineage)
        } else {
            let prefix_tokens = 2 * BLOCK_TOKENS + 5 + 11 * group as usize;
            PromptContent::shared(7 + group, prefix_tokens, lineage)
        }
    }

    /// `pool.alloc(n)`; in differential runs, also `n` one-block allocations
    /// on a copy of the pool, which must agree with it.
    fn alloc(&mut self, n: usize) -> Option<Vec<BlockId>> {
        let mut singles = self.shadow(n);
        let evicted = self.pool.blocks_evicted();
        let batch = self.pool.alloc(n);
        if let Some(singles) = &mut singles {
            let mut got = Vec::new();
            while got.len() < n {
                let Some(one) = singles.alloc(1) else { break };
                got.extend(one);
            }
            if batch.is_none() {
                // A failed allocation hands nothing out.
                singles.release(&got);
                got.clear();
            }
            assert_eq!(batch.as_deref().unwrap_or_default(), &got[..], "alloc({n})");
            self.assert_agrees(singles, n);
        }
        self.multi_evictions += usize::from(self.pool.blocks_evicted() > evicted + 1);
        batch
    }

    /// `pool.alloc_counted(n)`; in differential runs, also `n` one-block
    /// grants on a copy of the pool, which must agree with it.
    fn alloc_counted(&mut self, n: usize) -> bool {
        let mut singles = self.shadow(n);
        let evicted = self.pool.blocks_evicted();
        let granted = self.pool.alloc_counted(n);
        if let Some(singles) = &mut singles {
            let got = (0..n).take_while(|_| singles.alloc_counted(1)).count();
            if !granted {
                singles.release_counted(got);
            }
            assert_eq!(granted, got == n, "alloc_counted({n})");
            self.assert_agrees(singles, n);
        }
        self.multi_evictions += usize::from(self.pool.blocks_evicted() > evicted + 1);
        granted
    }

    /// A copy of the pool to replay an `n`-block request on one block at a
    /// time, in differential runs. A request for more blocks than are not
    /// referenced is refused before it evicts anything, so it has no
    /// one-block counterpart.
    fn shadow(&self, n: usize) -> Option<BlockPool> {
        let fits = n <= self.pool.capacity_blocks() - self.pool.referenced_blocks();
        (self.differential && fits).then(|| self.pool.clone())
    }

    fn assert_agrees(&self, singles: &BlockPool, n: usize) {
        let counters = |p: &BlockPool| {
            let (e, c, i) = (p.blocks_evicted(), p.cached_blocks(), p.indexed_blocks());
            (e, c, i, p.free_blocks())
        };
        assert_eq!(
            counters(&self.pool),
            counters(singles),
            "counters after {n} blocks"
        );
    }

    /// Index the request's newly computed full blocks, as the engine does
    /// after each prefill chunk or decode.
    fn index(&mut self, i: usize) {
        let r = &mut self.live[i];
        let full = (r.tokens / BLOCK_TOKENS).min(r.blocks.len());
        if r.stalled || full <= r.indexed {
            return;
        }
        let (cursor, n) =
            self.pool
                .extend_index(r.cursor, r.content, r.indexed, &r.blocks[r.indexed..full]);
        self.digest.add(n as u64);
        r.stalled = n < full - r.indexed;
        r.cursor = cursor;
        r.indexed += n;
    }

    /// Match the prompt, allocate the rest, finish the copy-on-write and
    /// index the computed prompt.
    fn admit(&mut self, content: PromptContent, tokens: usize) {
        let m = self.pool.acquire_prefix(content, tokens - 1);
        self.digest.blocks(&m.blocks);
        self.digest.add(m.cached_tokens as u64);
        self.digest
            .add(m.cow_source.map_or(u64::MAX, |b| b.index() as u64));
        let fresh = self.alloc(blocks_for(tokens) - m.blocks.len());
        self.digest.add(u64::from(fresh.is_some()));
        if let Some(cow) = m.cow_source {
            self.cow_matches += 1;
            self.pool.release(&[cow]);
        }
        let Some(fresh) = fresh else {
            self.refusals += 1;
            self.pool.release(&m.blocks);
            return;
        };
        self.digest.blocks(&fresh);
        self.admits += 1;
        let indexed = m.blocks.len();
        let mut blocks = m.blocks;
        blocks.extend(fresh);
        self.live.push(Live {
            content,
            tokens,
            blocks,
            cursor: m.cursor,
            indexed,
            stalled: false,
        });
        self.index(self.live.len() - 1);
    }

    fn step(&mut self) {
        match self.rng.next_usize(10) {
            0..=2 => {
                let content = self.content();
                let tokens = 1 + self.rng.next_usize(self.max_blocks * BLOCK_TOKENS);
                self.admit(content, tokens);
            }
            3 | 4 if !self.live.is_empty() => {
                let i = self.rng.next_usize(self.live.len());
                let grown = self.live[i].tokens + 1 + self.rng.next_usize(40);
                let need = blocks_for(grown).saturating_sub(self.live[i].blocks.len());
                match self.alloc(need) {
                    Some(fresh) => {
                        self.digest.blocks(&fresh);
                        self.live[i].blocks.extend(fresh);
                        self.live[i].tokens = grown;
                        self.index(i);
                    }
                    None => self.digest.add(u64::MAX),
                }
            }
            5..=7 if !self.live.is_empty() => {
                let r = self.live.swap_remove(self.rng.next_usize(self.live.len()));
                self.pool.release(&r.blocks);
                if self.rng.next_usize(2) == 0 {
                    self.parked.push((r.content, r.tokens));
                }
            }
            8 if !self.parked.is_empty() => {
                let (content, tokens) = self
                    .parked
                    .swap_remove(self.rng.next_usize(self.parked.len()));
                self.restores += 1;
                self.admit(content, tokens);
            }
            9 => {
                if !self.counted.is_empty() && self.rng.next_usize(2) == 0 {
                    let n = self
                        .counted
                        .swap_remove(self.rng.next_usize(self.counted.len()));
                    self.pool.release_counted(n);
                } else {
                    let n = 1 + self.rng.next_usize(8);
                    let granted = self.alloc_counted(n);
                    self.digest.add(u64::from(granted));
                    if granted {
                        self.counted.push(n);
                    }
                }
            }
            _ => {}
        }
        let probe = self.content();
        let limit = self.rng.next_usize(10 * BLOCK_TOKENS);
        self.digest.add(self.pool.peek_prefix(probe, limit) as u64);
        for x in [
            self.pool.blocks_evicted(),
            self.pool.cached_blocks(),
            self.pool.indexed_blocks(),
            self.pool.free_blocks(),
            self.pool.available_blocks(),
        ] {
            self.digest.add(x as u64);
        }
    }

    fn summary(&self) -> String {
        format!(
            "digest {:016x} evicted {} cached {} indexed {} admits {} refusals {} cow {} restores {}",
            self.digest.0,
            self.pool.blocks_evicted(),
            self.pool.cached_blocks(),
            self.pool.indexed_blocks(),
            self.admits,
            self.refusals,
            self.cow_matches,
            self.restores,
        )
    }
}

#[test]
fn pool_traffic_matches_golden() {
    let mut got = String::new();
    for (capacity_blocks, seed) in [(24, 1), (64, 2), (64, 3), (160, 4), (400, 5)] {
        let mut t = Traffic::new(capacity_blocks, seed);
        for _ in 0..4_000 {
            t.step();
        }
        for r in std::mem::take(&mut t.live) {
            t.pool.release(&r.blocks);
        }
        for n in std::mem::take(&mut t.counted) {
            t.pool.release_counted(n);
        }
        assert_eq!(t.pool.referenced_blocks(), 0);
        assert_eq!(
            t.pool.cached_blocks() + t.pool.free_blocks(),
            capacity_blocks
        );
        got += &format!("{capacity_blocks}/{seed}: {}\n", t.summary());
    }
    let golden = "\
24/1: digest 3277e7d079b8942d evicted 3312 cached 10 indexed 10 admits 912 refusals 684 cow 375 restores 376
64/2: digest 2c7cc7653df3cb55 evicted 3793 cached 42 indexed 42 admits 1206 refusals 371 cow 828 restores 377
64/3: digest 60f14998ccab70bf evicted 3703 cached 39 indexed 39 admits 1190 refusals 431 cow 914 restores 426
160/4: digest 3ee0e50a6491e239 evicted 3390 cached 105 indexed 105 admits 1239 refusals 368 cow 997 restores 411
400/5: digest f346c2bad692cbda evicted 3115 cached 251 indexed 251 admits 1289 refusals 334 cow 1083 restores 400
";
    assert_eq!(got, golden, "golden mismatch; new values:\n{got}");
}

/// Allocating `n` blocks at once evicts the same leaves, in the same order,
/// as `n` one-block allocations. The traffic runs long chains that drain
/// inward, indexes many blocks per logical tick (so `last_use` ties break on
/// node id), fans out under shared system prompts and mixes in counted
/// grants, which evict through the same loop.
#[test]
fn batch_eviction_matches_one_block_allocations() {
    let mut multi_evictions = 0;
    for (capacity_blocks, seed) in [(48, 11), (128, 12), (300, 13)] {
        let mut t = Traffic {
            max_blocks: 40,
            differential: true,
            ..Traffic::new(capacity_blocks, seed)
        };
        for _ in 0..2_000 {
            t.step();
        }
        assert!(
            t.pool.blocks_evicted() > 5 * capacity_blocks,
            "{}",
            t.summary()
        );
        multi_evictions += t.multi_evictions;
    }
    assert!(
        multi_evictions > 1_000,
        "multi-block evictions: {multi_evictions}"
    );
}
