//! The prefix-sharing paged KV-cache block subsystem.
//!
//! This replaces the counter-only capacity manager with real per-block
//! identity, the way vLLM's block manager and SGLang's RadixAttention treat
//! GPU memory:
//!
//! * [`BlockPool`] owns `capacity / BLOCK_TOKENS` fixed-size blocks with
//!   reference counts. A block is **free** (on the free list), **referenced**
//!   (held by at least one live request) or **cached** (refcount zero but
//!   still holding the KV of a previously computed prefix — reclaimable).
//! * Requests hold blocks in one of two ways. **Named** blocks are ids a
//!   request's block table lists, so they can grow, be shared and be
//!   indexed (the paged policy). A **counted** grant is a number of
//!   interchangeable blocks held without identity (the conservative policy's
//!   whole-request reservation): O(1) accounting, never indexed. Both kinds
//!   draw on the one capacity, so they may share a pool.
//! * [`PrefixIndex`] is a radix trie over full blocks: each node is one block
//!   of `BLOCK_TOKENS` tokens extending its parent's prefix. A request's
//!   prompt walks the trie and every matched node is a block of KV it does
//!   not have to prefill. Edges are keyed by an **exact block key**: a
//!   [`PromptContent`] stream's tokens are a bijective mix of its tag and
//!   position, and siblings sit at the same positions, so a block's content
//!   is fully described by the tags it spans — `(head tag, tail tag, split)`.
//!   Equal keys mean equal tokens, so no match is ever a hash collision. Each
//!   node links its children through intrusive first-child/sibling ids. A
//!   node is **fanned** once it holds two children at once; from then until
//!   its last child leaves, its children also sit in one pool-wide map from
//!   `(parent, key)` to child. An unfanned node has at most one child, found
//!   by comparing its key, so single-child chains never hash.
//! * **Copy-on-write on divergence:** when the walk ends mid-block — the
//!   request's next tokens agree with a cached block for only part of its
//!   span — the cached block is copied into a private block and the common
//!   leading tokens are reused; the divergent tail is recomputed. The shared
//!   original is never mutated.
//! * **LRU eviction:** cached blocks whose trie node is a leaf are evictable,
//!   oldest-use first. Evicting a leaf may turn its parent into an evictable
//!   leaf, so long-dead conversations drain from the tail inward, exactly
//!   like RadixAttention's leaf-first LRU. The evictable set is a min-heap
//!   over `(last_use, node id)` with lazy deletion: a node leaving the set
//!   only clears its membership flag, and its stale heap entry is skipped
//!   when popped. A parent that becomes an evictable leaf mid-eviction and
//!   sorts below the heap's top is the set's minimum, so it is evicted next
//!   without a push and a pop.
//!
//! Everything is deterministic: ties break on allocation order, the LRU is a
//! total order over `(last_use, node id)`, and no hash-map iteration order
//! ever reaches a decision.

use crate::fasthash::FastMap;
use crate::request::PromptContent;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashSet};

/// Tokens per KV-cache block (the paged-attention page size).
pub const BLOCK_TOKENS: usize = 16;

/// Identifier of one KV-cache block inside a [`BlockPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// The raw index (stable for the lifetime of the pool).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Number of blocks needed to hold `tokens` tokens.
pub fn blocks_for(tokens: usize) -> usize {
    tokens.div_ceil(BLOCK_TOKENS)
}

/// Sentinel for "no trie node" / the trie root.
const NO_NODE: u32 = u32::MAX;

/// Position in the [`PrefixIndex`] reached by a prefix walk; extending a
/// request's indexed chain resumes from here instead of re-walking from the
/// root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor(u32);

impl Cursor {
    /// The trie root (empty prefix).
    pub fn root() -> Self {
        Cursor(NO_NODE)
    }
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor::root()
    }
}

/// The exact content of one full block of a [`PromptContent::Tokens`]
/// stream: positions `[0, split)` carry `head`'s tokens, the rest `tail`'s.
///
/// A token is `mix64(tag ^ position · φ)` and `mix64` is a bijection, so at
/// one position two streams agree exactly when their tags do. Sibling blocks
/// sit at the same positions, so comparing keys compares tokens. Keys are
/// canonical — a block under one tag is `(tag, tag, 0)` — so equal content
/// always means an equal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BlockKey {
    head: u64,
    tail: u64,
    split: u8,
}

impl BlockKey {
    /// Key of block `block_idx` of `content`'s stream.
    fn of(content: PromptContent, block_idx: usize) -> Self {
        let PromptContent::Tokens {
            prefix_tag,
            prefix_tokens,
            lineage_tag,
        } = content
        else {
            panic!("block keys require shareable content");
        };
        let split = prefix_tokens.saturating_sub(block_idx * BLOCK_TOKENS);
        let uniform = |tag| BlockKey {
            head: tag,
            tail: tag,
            split: 0,
        };
        if split == 0 || prefix_tag == lineage_tag {
            uniform(lineage_tag)
        } else if split >= BLOCK_TOKENS {
            uniform(prefix_tag)
        } else {
            BlockKey {
                head: prefix_tag,
                tail: lineage_tag,
                split: split as u8,
            }
        }
    }

    fn tag_at(self, offset: usize) -> u64 {
        if offset < usize::from(self.split) {
            self.head
        } else {
            self.tail
        }
    }

    /// Number of leading tokens the two blocks share. Both keys' tags are
    /// constant between their splits, so the first disagreement, if any, is
    /// at `0` or at one of the splits.
    fn common_prefix(self, other: BlockKey) -> usize {
        let (lo, hi) = if self.split <= other.split {
            (self.split, other.split)
        } else {
            (other.split, self.split)
        };
        [0, usize::from(lo), usize::from(hi)]
            .into_iter()
            .find(|&at| self.tag_at(at) != other.tag_at(at))
            .unwrap_or(BLOCK_TOKENS)
    }
}

/// Child node by `(parent node, block key)`; the parent of a root child is
/// [`NO_NODE`].
type EdgeMap = FastMap<(u32, BlockKey), u32>;

/// One radix-trie node: a full block of tokens extending its parent's prefix.
#[derive(Debug, Clone)]
struct TrieNode {
    /// Parent node, or [`NO_NODE`] when the parent is the root.
    parent: u32,
    /// This node's content — its edge key under `parent`.
    key: BlockKey,
    /// The pool block holding this node's KV.
    block: u32,
    /// Intrusive child list: the newest child, and this node's neighbours
    /// among its parent's children ([`NO_NODE`] where there is none).
    first_child: u32,
    prev_sibling: u32,
    next_sibling: u32,
    /// Logical time of the last walk through this node (LRU key).
    last_use: u64,
    /// Whether `(last_use, id)` is in the pool's evictable set.
    evictable: bool,
    /// Whether this node's children sit in the edge map: set the first time
    /// it holds two children at once, cleared when its last child leaves.
    fanned: bool,
}

/// A radix trie mapping block-granular token prefixes to cached block ids.
///
/// The index stores *structure only* — which prefixes exist and which block
/// holds each — while [`BlockPool`] owns reference counts and the eviction
/// order. Nodes are slab-allocated so ids are stable and deterministic.
#[derive(Debug, Clone)]
pub struct PrefixIndex {
    nodes: Vec<Option<TrieNode>>,
    free_nodes: Vec<u32>,
    /// Edges out of fanned nodes only: an unfanned node has at most one
    /// child, found through `first_child`.
    edges: EdgeMap,
    /// Newest child of the root, or [`NO_NODE`] when the index is empty.
    root_first: u32,
    /// The root's `fanned` flag.
    root_fanned: bool,
}

impl Default for PrefixIndex {
    fn default() -> Self {
        PrefixIndex {
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            edges: EdgeMap::default(),
            root_first: NO_NODE,
            root_fanned: false,
        }
    }
}

impl PrefixIndex {
    /// Number of live nodes (cached or referenced prefix blocks).
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Whether the index holds no prefixes at all.
    pub fn is_empty(&self) -> bool {
        self.root_first == NO_NODE
    }

    fn node(&self, idx: u32) -> &TrieNode {
        self.nodes[idx as usize]
            .as_ref()
            .expect("trie node id is live")
    }

    fn node_mut(&mut self, idx: u32) -> &mut TrieNode {
        self.nodes[idx as usize]
            .as_mut()
            .expect("trie node id is live")
    }

    fn first_child(&self, parent: u32) -> u32 {
        self.links(parent).0
    }

    /// `parent`'s newest child and its `fanned` flag.
    fn links(&self, parent: u32) -> (u32, bool) {
        if parent == NO_NODE {
            (self.root_first, self.root_fanned)
        } else {
            let node = self.node(parent);
            (node.first_child, node.fanned)
        }
    }

    fn set_first_child(&mut self, parent: u32, child: u32) {
        if parent == NO_NODE {
            self.root_first = child;
        } else {
            self.node_mut(parent).first_child = child;
        }
    }

    fn set_fanned(&mut self, parent: u32, fanned: bool) {
        if parent == NO_NODE {
            self.root_fanned = fanned;
        } else {
            self.node_mut(parent).fanned = fanned;
        }
    }

    /// Whether the evictable-heap entry `(last_use, idx)` still names a
    /// member: entries are deleted lazily, so a popped one may be stale.
    fn is_current(&self, (last_use, idx): (u64, u32)) -> bool {
        self.nodes[idx as usize]
            .as_ref()
            .is_some_and(|n| n.evictable && n.last_use == last_use)
    }

    /// Child of `cursor` holding exactly the block `key`, if cached.
    fn child(&self, cursor: Cursor, key: BlockKey) -> Option<u32> {
        match self.links(cursor.0) {
            (_, true) => self.edges.get(&(cursor.0, key)).copied(),
            (NO_NODE, false) => None,
            (only, false) => (self.node(only).key == key).then_some(only),
        }
    }

    /// Ids of `cursor`'s children, newest first.
    fn children(&self, cursor: Cursor) -> impl Iterator<Item = u32> + '_ {
        let first = self.first_child(cursor.0);
        std::iter::successors((first != NO_NODE).then_some(first), |&c| {
            let next = self.node(c).next_sibling;
            (next != NO_NODE).then_some(next)
        })
    }

    /// Insert a child holding block `key` under `cursor`. Returns `None`,
    /// leaving the trie unchanged, if an equal child already exists.
    fn insert_child(
        &mut self,
        cursor: Cursor,
        key: BlockKey,
        block: u32,
        last_use: u64,
    ) -> Option<u32> {
        let parent = cursor.0;
        let (next, fanned) = self.links(parent);
        if !fanned && next != NO_NODE {
            // A second child: the parent fans out, and its first child joins
            // the edge map with it.
            let only = self.node(next).key;
            if only == key {
                return None;
            }
            self.edges.insert((parent, only), next);
            self.set_fanned(parent, true);
        }
        // With a child already there, the parent is fanned from here on.
        let slot = if next == NO_NODE {
            None
        } else {
            match self.edges.entry((parent, key)) {
                Entry::Occupied(_) => return None,
                Entry::Vacant(slot) => Some(slot),
            }
        };
        let idx = self.free_nodes.pop().unwrap_or_else(|| {
            self.nodes.push(None);
            (self.nodes.len() - 1) as u32
        });
        if let Some(slot) = slot {
            slot.insert(idx);
        }
        self.nodes[idx as usize] = Some(TrieNode {
            parent,
            key,
            block,
            first_child: NO_NODE,
            prev_sibling: NO_NODE,
            next_sibling: next,
            last_use,
            evictable: false,
            fanned: false,
        });
        if next != NO_NODE {
            self.node_mut(next).prev_sibling = idx;
        }
        self.set_first_child(parent, idx);
        Some(idx)
    }

    /// Remove a (leaf) node, returning its block and its parent cursor.
    fn remove_leaf(&mut self, idx: u32) -> (u32, Cursor) {
        let node = self.nodes[idx as usize]
            .take()
            .expect("evicting a live node");
        debug_assert_eq!(node.first_child, NO_NODE, "only leaves are evictable");
        if node.prev_sibling == NO_NODE {
            self.set_first_child(node.parent, node.next_sibling);
        } else {
            self.node_mut(node.prev_sibling).next_sibling = node.next_sibling;
        }
        if node.next_sibling != NO_NODE {
            self.node_mut(node.next_sibling).prev_sibling = node.prev_sibling;
        }
        let (first, fanned) = self.links(node.parent);
        if fanned {
            self.edges.remove(&(node.parent, node.key));
            if first == NO_NODE {
                self.set_fanned(node.parent, false);
            }
        }
        self.free_nodes.push(idx);
        (node.block, Cursor(node.parent))
    }
}

/// Result of matching a request's prompt against the prefix index.
#[derive(Debug, Clone, Default)]
pub struct PrefixMatch {
    /// Fully matched cached blocks, in prefix order. Their reference counts
    /// have been incremented; they belong in the request's block table.
    pub blocks: Vec<BlockId>,
    /// Prompt tokens satisfied from the cache: `blocks.len() * BLOCK_TOKENS`
    /// plus any copy-on-write partial tokens.
    pub cached_tokens: usize,
    /// Trie position after the last matched block, for later
    /// [`BlockPool::extend_index`] calls.
    pub cursor: Cursor,
    /// When the walk diverged mid-block: the cached block whose leading
    /// tokens agree with the request. The caller copies it into a private
    /// block (copy-on-write) and recomputes only the divergent tail.
    pub cow_source: Option<BlockId>,
}

/// A serialized KV block chain in flight between replicas: the
/// pool-independent description of one request's resident context that a
/// disaggregated prefill→decode handoff ships across the fleet. Block
/// *identities* are pool-local, so a chain carries only its shape — token
/// and block counts — and the receiving replica re-materializes it as a
/// fresh grant, never entered into its prefix index. The bytes on the wire
/// are modeled by the cluster's migration cost model, not stored here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvChain {
    /// Context tokens the chain holds (prompt + tokens generated so far).
    pub tokens: usize,
    /// Blocks backing those tokens on the source pool.
    pub blocks: usize,
}

/// Per-block pool state.
#[derive(Debug, Clone)]
struct BlockState {
    refs: u32,
    /// The trie node this block backs, if it was ever indexed.
    node: u32,
}

/// A pool of ref-counted KV-cache blocks with a prefix index and LRU
/// eviction: free vs. referenced vs. cached populations, radix matching
/// with copy-on-write, and deterministic leaf-first LRU eviction.
#[derive(Debug, Clone)]
pub struct BlockPool {
    capacity_blocks: usize,
    /// Per-block state for ids below `virgin`; blocks at or above the
    /// watermark have never been touched and are implicitly free, so
    /// constructing a pool is O(1) no matter the capacity.
    states: Vec<BlockState>,
    /// Lowest never-yet-used block id (the lazy tail of the free set).
    virgin: u32,
    /// Explicitly freed blocks, reused LIFO (deterministic).
    free: Vec<u32>,
    index: PrefixIndex,
    /// Evictable trie leaves as a min-heap over `(last_use, node id)` — a
    /// total order, so eviction is deterministic. Entries are deleted
    /// lazily: a node is a member while its `evictable` flag is set and its
    /// `last_use` matches the entry. A member's `last_use` only changes
    /// after it leaves the set, so pops come out in exact set order.
    evictable: BinaryHeap<Reverse<(u64, u32)>>,
    /// Nodes whose `evictable` flag is set.
    evictable_len: usize,
    /// Logical clock advanced on every prefix walk (LRU recency).
    tick: u64,
    /// Named blocks with refcount > 0 (kept incrementally so usage queries
    /// are O(1)).
    referenced: usize,
    /// Blocks held by counted grants. They are backed by the free
    /// population: `take_free` never hands out the last `counted` free
    /// blocks.
    counted: usize,
    blocks_evicted: usize,
}

impl BlockPool {
    /// A pool backing `capacity_tokens` tokens of KV cache. Capacity that is
    /// not a whole number of blocks is **rounded down** — a partial block
    /// cannot hold a page of KV.
    pub fn new(capacity_tokens: usize) -> Self {
        let capacity_blocks = capacity_tokens / BLOCK_TOKENS;
        BlockPool {
            capacity_blocks,
            states: Vec::new(),
            virgin: 0,
            free: Vec::new(),
            index: PrefixIndex::default(),
            evictable: BinaryHeap::new(),
            evictable_len: 0,
            tick: 0,
            referenced: 0,
            counted: 0,
            blocks_evicted: 0,
        }
    }

    /// Total capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Blocks available without eviction: explicitly freed and never used
    /// ones, less those backing counted grants.
    pub fn free_blocks(&self) -> usize {
        self.free.len() + (self.capacity_blocks - self.virgin as usize) - self.counted
    }

    /// Take a free block: explicitly freed ones first (LIFO), then the next
    /// never-used id. The blocks backing counted grants are not free.
    fn take_free(&mut self) -> Option<u32> {
        if self.free_blocks() == 0 {
            return None;
        }
        if let Some(id) = self.free.pop() {
            return Some(id);
        }
        if (self.virgin as usize) < self.capacity_blocks {
            let id = self.virgin;
            self.virgin += 1;
            self.states.push(BlockState {
                refs: 0,
                node: NO_NODE,
            });
            Some(id)
        } else {
            None
        }
    }

    /// Unreferenced blocks still holding cached prefixes. (Counts evictable
    /// leaves plus cached interior nodes, which become evictable once their
    /// children drain.)
    pub fn cached_blocks(&self) -> usize {
        self.capacity_blocks - self.free_blocks() - self.referenced_blocks()
    }

    /// Blocks held by live requests: named blocks with refcount > 0 plus
    /// counted grants.
    pub fn referenced_blocks(&self) -> usize {
        self.referenced + self.counted
    }

    /// Fraction of the capacity held by live requests (0 for an empty pool).
    pub fn utilization(&self) -> f64 {
        if self.capacity_blocks == 0 {
            return 0.0;
        }
        self.referenced_blocks() as f64 / self.capacity_blocks as f64
    }

    /// A lower bound on the blocks an allocation could obtain right now:
    /// free blocks plus cached chains reclaimable by leaf-first eviction.
    /// Conservative on branching tries (a shared parent only counts once
    /// *both* its children are gone); [`BlockPool::alloc`] itself is greedy
    /// and never relies on this estimate.
    pub fn available_blocks(&self) -> usize {
        // Walk up from every evictable leaf, counting the leaf plus the
        // maximal run of exclusive (single-child, unreferenced) ancestors —
        // exactly the set one sequence of leaf evictions can free. The count
        // does not depend on the order the leaves are visited in.
        let mut seen = HashSet::new();
        let mut count = 0usize;
        for &Reverse(entry) in &self.evictable {
            let leaf = entry.1;
            if !self.index.is_current(entry) || !seen.insert(leaf) {
                continue;
            }
            count += 1;
            let mut at = self.index.node(leaf).parent;
            while at != NO_NODE && seen.insert(at) {
                let node = self.index.node(at);
                let only_child = self.index.node(node.first_child).next_sibling == NO_NODE;
                if only_child && self.states[node.block as usize].refs == 0 {
                    count += 1;
                    at = node.parent;
                } else {
                    break;
                }
            }
        }
        // All free blocks count, including the never-yet-used virgin tail —
        // `take_free` draws from both populations.
        self.free_blocks() + count
    }

    /// Blocks evicted over the pool's lifetime.
    pub fn blocks_evicted(&self) -> usize {
        self.blocks_evicted
    }

    /// Allocate `n` private blocks, evicting cached prefixes (LRU,
    /// leaf-first) as needed; [`BlockPool::alloc_into`] into a fresh table.
    pub fn alloc(&mut self, n: usize) -> Option<Vec<BlockId>> {
        let mut table = Vec::with_capacity(n);
        self.alloc_into(n, &mut table).then_some(table)
    }

    /// Append `n` private blocks to `table`, evicting cached prefixes (LRU,
    /// leaf-first) as needed. Returns `false` — and appends nothing — if
    /// even eviction cannot free enough; blocks evicted before the shortfall
    /// was discovered stay evicted (their cached prefixes are gone, the
    /// capacity returns to the free list).
    pub fn alloc_into(&mut self, n: usize, table: &mut Vec<BlockId>) -> bool {
        // O(1) reject for the common can't-fit case (admission retries every
        // iteration while the pool is full): at most every non-referenced
        // block could be obtained, so asking for more can never succeed and
        // must not churn through a doomed evict-and-roll-back pass.
        if n > self.capacity_blocks - self.referenced_blocks() {
            return false;
        }
        let start = table.len();
        table.reserve(n);
        let taken = n.min(self.free_blocks());
        for _ in 0..taken {
            let id = self.take_free().expect("free_blocks counts this block");
            table.push(BlockId(id));
        }
        // Evicted blocks land on the free list, in eviction order, after the
        // blocks the rest of the pool keeps there.
        let kept = self.free.len();
        if !self.evict(n - taken) {
            // Roll back: nothing is handed out on failure. The table's
            // blocks return to the free list ahead of the evicted ones.
            let evicted = self.free.split_off(kept);
            self.free.extend(table.drain(start..).map(|BlockId(id)| id));
            self.free.extend(evicted);
            return false;
        }
        table.extend(self.free.drain(kept..).map(BlockId));
        for &BlockId(id) in &table[start..] {
            let state = &mut self.states[id as usize];
            debug_assert_eq!((state.refs, state.node), (0, NO_NODE));
            state.refs = 1;
        }
        self.referenced += n;
        true
    }

    /// Add node `idx` to the evictable set.
    fn make_evictable(&mut self, idx: u32) {
        let node = self.index.node_mut(idx);
        if !node.evictable {
            node.evictable = true;
            self.evictable.push(Reverse((node.last_use, idx)));
            self.evictable_len += 1;
        }
    }

    /// Take node `idx` out of the evictable set (a no-op for non-members).
    /// Its heap entry goes stale; once stale entries outnumber members the
    /// heap is rebuilt from the members alone.
    fn unmake_evictable(&mut self, idx: u32) {
        let node = self.index.node_mut(idx);
        if !node.evictable {
            return;
        }
        node.evictable = false;
        self.evictable_len -= 1;
        if self.evictable.len() > 2 * self.evictable_len {
            let index = &self.index;
            self.evictable
                .retain(|&Reverse(entry)| index.is_current(entry));
        }
    }

    /// Evict `n` cached blocks, least recently used leaf first, pushing each
    /// onto the free list. Returns `false` if the evictable set runs dry
    /// first; the blocks evicted until then stay evicted.
    ///
    /// A parent left a cached leaf by its child's eviction is evicted next
    /// without entering the heap when `(last_use, id)` sorts below the heap's
    /// top: the top is at or below every member (a stale top only makes the
    /// test stricter), so the parent is the set's minimum, and a chain drains
    /// inward with no heap traffic at all.
    fn evict(&mut self, n: usize) -> bool {
        let mut next = None;
        for left in (0..n).rev() {
            let leaf = match next.take() {
                Some(parent) => parent,
                None => loop {
                    let Some(Reverse(entry)) = self.evictable.pop() else {
                        return false;
                    };
                    if self.index.is_current(entry) {
                        // Removing the node leaves any duplicate entry stale.
                        self.evictable_len -= 1;
                        break entry.1;
                    }
                },
            };
            let (block, Cursor(parent)) = self.index.remove_leaf(leaf);
            debug_assert_eq!(self.states[block as usize].refs, 0);
            self.states[block as usize].node = NO_NODE;
            self.blocks_evicted += 1;
            self.free.push(block);
            // The parent may now be an evictable leaf itself.
            if parent == NO_NODE {
                continue;
            }
            let p = self.index.node(parent);
            if p.first_child != NO_NODE || self.states[p.block as usize].refs != 0 {
                continue;
            }
            let below_top = |&Reverse(top): &Reverse<(u64, u32)>| (p.last_use, parent) < top;
            if left > 0 && self.evictable.peek().map_or(true, below_top) {
                next = Some(parent);
            } else {
                self.make_evictable(parent);
            }
        }
        true
    }

    /// Release one reference on every block in `blocks`. Blocks that were
    /// indexed stay cached (becoming evictable once they are leaves);
    /// anonymous blocks return to the free list.
    pub fn release(&mut self, blocks: &[BlockId]) {
        for &BlockId(id) in blocks {
            let state = &mut self.states[id as usize];
            debug_assert!(state.refs > 0, "releasing an unreferenced block");
            state.refs -= 1;
            if state.refs > 0 {
                continue;
            }
            self.referenced -= 1;
            let node = state.node;
            if node == NO_NODE {
                self.free.push(id);
            } else if self.index.node(node).first_child == NO_NODE {
                self.make_evictable(node);
            }
        }
    }

    /// Grant `n` counted blocks: capacity held without block identity.
    /// Cached prefixes are evicted (LRU, leaf-first) until free blocks back
    /// the grant. Returns `false` — and grants nothing — if even eviction
    /// cannot make room; as with [`BlockPool::alloc`], blocks evicted before
    /// the shortfall was found stay evicted. With no named blocks in the
    /// pool this is a plain O(1) counter.
    pub fn alloc_counted(&mut self, n: usize) -> bool {
        if n > self.capacity_blocks - self.referenced_blocks() {
            return false;
        }
        if !self.evict(n.saturating_sub(self.free_blocks())) {
            return false;
        }
        self.counted += n;
        true
    }

    /// Return `n` counted blocks to the free population.
    ///
    /// # Panics
    ///
    /// Panics if more blocks are released than counted grants hold, which
    /// would indicate an accounting bug in the caller.
    pub fn release_counted(&mut self, n: usize) {
        assert!(
            n <= self.counted,
            "releasing {n} blocks but only {} are in use",
            self.counted
        );
        self.counted -= n;
    }

    /// Longest cached prefix of `content`'s stream available right now,
    /// capped at `limit_tokens`, **without touching any state** — the
    /// side-effect-free form routers use to measure affinity.
    pub fn peek_prefix(&self, content: PromptContent, limit_tokens: usize) -> usize {
        if !content.is_shareable() {
            return 0;
        }
        let mut cursor = Cursor::root();
        let mut matched = 0usize;
        while matched + BLOCK_TOKENS <= limit_tokens {
            let key = BlockKey::of(content, matched / BLOCK_TOKENS);
            match self.index.child(cursor, key) {
                Some(idx) => {
                    cursor = Cursor(idx);
                    matched += BLOCK_TOKENS;
                }
                None => break,
            }
        }
        matched
            + self
                .partial_match_len(cursor, content, matched, limit_tokens)
                .0
    }

    /// Longest common leading run between `content`'s tokens from the
    /// block-aligned stream position `from` and any child of `cursor`,
    /// capped at `limit`. Returns `(length, child node)`. Deterministic: best
    /// length wins, ties break on the smallest node id, so the order of the
    /// child list never matters.
    fn partial_match_len(
        &self,
        cursor: Cursor,
        content: PromptContent,
        from: usize,
        limit_tokens: usize,
    ) -> (usize, Option<u32>) {
        let span = (limit_tokens - from).min(BLOCK_TOKENS);
        if span == 0 {
            return (0, None);
        }
        let want = BlockKey::of(content, from / BLOCK_TOKENS);
        let mut best = (0usize, None);
        for child in self.index.children(cursor) {
            let common = want.common_prefix(self.index.node(child).key).min(span);
            let better = common > best.0
                || (common == best.0 && common > 0 && best.1.is_some_and(|b| child < b));
            if better {
                best = (common, Some(child));
            }
        }
        best
    }

    /// Take one reference on the block of trie node `idx` and stamp its
    /// recency; a cached node leaves the evictable set first.
    fn acquire_node(&mut self, idx: u32, stamp: u64) -> BlockId {
        let block = self.index.node(idx).block;
        let state = &mut self.states[block as usize];
        if state.refs == 0 {
            self.referenced += 1;
            self.unmake_evictable(idx);
        }
        self.states[block as usize].refs += 1;
        self.index.node_mut(idx).last_use = stamp;
        BlockId(block)
    }

    /// Walk the prefix index for `content` and acquire every matched block
    /// (incrementing refcounts and refreshing LRU recency). `limit_tokens`
    /// caps the match — callers pass one less than the tokens they must
    /// compute so at least one token is always left to prefill.
    ///
    /// If the walk diverges mid-block against a cached block, the result
    /// carries that block as [`PrefixMatch::cow_source`] and counts its
    /// common leading tokens in `cached_tokens`; the caller copies it into
    /// one of its own freshly allocated blocks. The source is **pinned**
    /// (its refcount incremented) so allocations made before the copy cannot
    /// evict it; the caller must [`release`](BlockPool::release) it once the
    /// copy is done.
    pub fn acquire_prefix(&mut self, content: PromptContent, limit_tokens: usize) -> PrefixMatch {
        let mut m = PrefixMatch::default();
        if !content.is_shareable() {
            return m;
        }
        self.tick += 1;
        let stamp = self.tick;
        while m.cached_tokens + BLOCK_TOKENS <= limit_tokens {
            let key = BlockKey::of(content, m.cached_tokens / BLOCK_TOKENS);
            let Some(idx) = self.index.child(m.cursor, key) else {
                break;
            };
            m.blocks.push(self.acquire_node(idx, stamp));
            m.cached_tokens += BLOCK_TOKENS;
            m.cursor = Cursor(idx);
        }
        let (extra, child) =
            self.partial_match_len(m.cursor, content, m.cached_tokens, limit_tokens);
        if let Some(child) = child {
            // Pin the source exactly like a full match, so it survives any
            // same-admission allocation; the caller releases it post-copy.
            m.cow_source = Some(self.acquire_node(child, stamp));
            m.cached_tokens += extra;
        }
        m
    }

    /// Register `blocks` — the caller's own, already-computed, full blocks
    /// starting at block index `start_block` of `content`'s stream — in the
    /// prefix index, resuming from `cursor`. Returns the new cursor and how
    /// many of `blocks` were registered (callers must not advance their
    /// indexing watermark past a short count: the chain is shared there, and
    /// indexing from a stale cursor would splice wrong prefixes together).
    ///
    /// The caller must hold references to the blocks along `cursor`'s path
    /// (the engine always does: they are the request's acquired or own
    /// blocks), which is what keeps returned cursors safe from eviction. If
    /// an identical chain already exists (two identical prompts admitted
    /// before either computed its blocks), indexing **stops** rather than
    /// walking into nodes the caller holds no reference to; the duplicate
    /// blocks simply stay private.
    pub fn extend_index(
        &mut self,
        mut cursor: Cursor,
        content: PromptContent,
        start_block: usize,
        blocks: &[BlockId],
    ) -> (Cursor, usize) {
        debug_assert!(content.is_shareable());
        for (i, &BlockId(block)) in blocks.iter().enumerate() {
            let key = BlockKey::of(content, start_block + i);
            let Some(idx) = self.index.insert_child(cursor, key, block, self.tick) else {
                // An equal chain already exists; following it would leave the
                // caller with a cursor into blocks it does not reference.
                return (cursor, i);
            };
            // Defensive: a cursor node gaining a child can no longer be an
            // evictable leaf.
            if cursor.0 != NO_NODE {
                self.unmake_evictable(cursor.0);
            }
            debug_assert_eq!(self.states[block as usize].node, NO_NODE);
            self.states[block as usize].node = idx;
            cursor = Cursor(idx);
        }
        (cursor, blocks.len())
    }

    /// Number of prefixes currently indexed (diagnostics).
    pub fn indexed_blocks(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn content(lineage: u64) -> PromptContent {
        PromptContent::unique(lineage)
    }

    /// Token fingerprints of block `block_idx` of `content`'s stream.
    fn block_tokens(content: PromptContent, block_idx: usize) -> Vec<u64> {
        let base = block_idx * BLOCK_TOKENS;
        (base..base + BLOCK_TOKENS)
            .map(|p| content.token_at(p).expect("shareable content"))
            .collect()
    }

    /// Block keys are exact: two contents' keys for one block index are
    /// equal exactly when their 16 token fingerprints are, and the key-level
    /// common prefix equals the token-level one. Tags come from a tiny
    /// alphabet so equal tags and equal blocks are common; the prefix
    /// boundary falls before, inside and after the block.
    #[test]
    fn block_keys_match_exactly_when_tokens_do() {
        let mut rng = SplitMix64::seed_from_u64(0x6B_E75);
        let mut random_content = |block_idx: usize| {
            let base = block_idx * BLOCK_TOKENS;
            let prefix_tokens = (base + rng.next_usize(BLOCK_TOKENS + 3)).saturating_sub(1);
            PromptContent::shared(
                1 + rng.next_usize(3) as u64,
                prefix_tokens,
                1 + rng.next_usize(3) as u64,
            )
        };
        // (straddling, fully prefix, fully lineage, equal tags) cases seen.
        let mut seen = [0usize; 4];
        let mut equal_blocks = 0usize;
        for trial in 0..20_000 {
            let block_idx = trial % 4;
            let (a, b) = (random_content(block_idx), random_content(block_idx));
            let (ka, kb) = (BlockKey::of(a, block_idx), BlockKey::of(b, block_idx));
            let (ta, tb) = (block_tokens(a, block_idx), block_tokens(b, block_idx));
            assert_eq!(ka == kb, ta == tb, "{a:?} vs {b:?} at block {block_idx}");
            let common = ta.iter().zip(&tb).take_while(|(x, y)| x == y).count();
            assert_eq!(ka.common_prefix(kb), common, "{a:?} vs {b:?}");
            equal_blocks += usize::from(ta == tb);
            let PromptContent::Tokens {
                prefix_tag,
                prefix_tokens,
                lineage_tag,
            } = a
            else {
                unreachable!()
            };
            let base = block_idx * BLOCK_TOKENS;
            let case = if prefix_tag == lineage_tag {
                3
            } else if prefix_tokens <= base {
                2
            } else if prefix_tokens >= base + BLOCK_TOKENS {
                1
            } else {
                0
            };
            seen[case] += 1;
        }
        assert!(seen.iter().all(|&n| n > 1_000), "cases seen: {seen:?}");
        assert!(equal_blocks > 1_000, "equal blocks: {equal_blocks}");
    }

    /// A walk that ends mid-block copies the child sharing the most leading
    /// tokens, whichever order the children were indexed in: a block under
    /// the shared prefix then the lineage beats one that leaves the prefix
    /// earlier, and a fresh lineage shares only the prefix-tagged head.
    #[test]
    fn partial_match_picks_the_longest_tag_run() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 16);
        // Three one-block chains under prefix tag 5: the prefix covers 3, 9
        // and 12 tokens of block 0, then lineages 1, 2 and 3.
        let chains: Vec<Vec<BlockId>> = [(3, 1), (9, 2), (12, 3)]
            .into_iter()
            .map(|(prefix, lineage)| {
                let blocks = pool.alloc(1).unwrap();
                let c = PromptContent::shared(5, prefix, lineage);
                assert_eq!(pool.extend_index(Cursor::root(), c, 0, &blocks).1, 1);
                blocks
            })
            .collect();
        // Prefix over 9 tokens, then lineage 2: all 14 limit tokens match
        // the second chain.
        let m = pool.acquire_prefix(PromptContent::shared(5, 9, 2), 14);
        assert_eq!((m.cow_source, m.cached_tokens), (Some(chains[1][0]), 14));
        pool.release(&[m.cow_source.unwrap()]);
        // A 10-token prefix with a new lineage shares 9 tokens with the
        // second chain and 10 with the third.
        let probe = PromptContent::shared(5, 10, 4);
        assert_eq!(pool.peek_prefix(probe, 15), 10);
        let m = pool.acquire_prefix(probe, 15);
        assert_eq!(m.cow_source, Some(chains[2][0]));
        pool.release(&[m.cow_source.unwrap()]);
        // A uniform block under the prefix tag shares the longest head.
        assert_eq!(pool.peek_prefix(PromptContent::unique(5), 15), 12);
        for chain in &chains {
            pool.release(chain);
        }
    }

    /// One node — the root, then an interior node — goes through 0 → 1 → 2
    /// → 3 → 1 → 0 → 2 children, by indexing and evicting. At every step
    /// every child is found by full and copy-on-write matches, re-indexing
    /// an equal child stops short, and the edge map holds exactly the
    /// children of the node once it has fanned out.
    #[test]
    fn fan_out_transitions_keep_every_child_reachable() {
        for depth in [0, 1] {
            let mut pool = BlockPool::new(BLOCK_TOKENS * 16);
            // Child `i` is block `depth` of stream `i`; the streams share
            // their first `depth` blocks under tag 99.
            let stream = |i: u64| PromptContent::shared(99, depth * BLOCK_TOKENS, 100 + i);
            let path = pool.alloc(depth).unwrap();
            let (node, _) = pool.extend_index(Cursor::root(), stream(0), 0, &path);
            let mut children: Vec<(u64, BlockId)> = Vec::new();
            let check = |pool: &mut BlockPool, children: &[(u64, BlockId)], fanned: bool| {
                let full = (depth + 1) * BLOCK_TOKENS;
                for &(i, block) in children {
                    assert_eq!(pool.peek_prefix(stream(i), full), full);
                    let m = pool.acquire_prefix(stream(i), full);
                    assert_eq!(m.blocks, [&path[..], &[block]].concat());
                    pool.release(&m.blocks);
                    let cow = pool.acquire_prefix(stream(i), full - 5);
                    assert_eq!((cow.blocks.len(), cow.cow_source), (depth, Some(block)));
                    assert_eq!(cow.cached_tokens, full - 5);
                    pool.release(&cow.blocks);
                    pool.release(&[block]);
                    let dup = pool.alloc(1).unwrap();
                    assert_eq!(pool.extend_index(node, stream(i), depth, &dup), (node, 0));
                    pool.release(&dup);
                }
                assert_eq!(pool.peek_prefix(stream(7), 2 * full), depth * BLOCK_TOKENS);
                assert_eq!(pool.indexed_blocks(), depth + children.len());
                assert_eq!(pool.index.links(node.0).1, fanned);
                let edges = if fanned { children.len() } else { 0 };
                assert_eq!(pool.index.edges.len(), edges);
            };
            let index = |pool: &mut BlockPool, children: &mut Vec<(u64, BlockId)>, i: u64| {
                let block = pool.alloc(1).unwrap();
                assert_eq!(pool.extend_index(node, stream(i), depth, &block).1, 1);
                pool.release(&block);
                children.push((i, block[0]));
            };
            // Evict all children but `keep`, the most recently used.
            let evict_all_but =
                |pool: &mut BlockPool, children: &mut Vec<(u64, BlockId)>, keep: Option<u64>| {
                    let kept: Vec<_> = children
                        .iter()
                        .copied()
                        .filter(|c| Some(c.0) == keep)
                        .collect();
                    for &(i, _) in &kept {
                        let m = pool.acquire_prefix(stream(i), BLOCK_TOKENS * (depth + 1));
                        pool.release(&m.blocks);
                    }
                    let evicted = pool.blocks_evicted();
                    let filler = pool.alloc(pool.free_blocks() + children.len() - kept.len());
                    pool.release(&filler.unwrap());
                    assert_eq!(pool.blocks_evicted() - evicted, children.len() - kept.len());
                    *children = kept;
                };
            check(&mut pool, &children, false);
            index(&mut pool, &mut children, 1);
            check(&mut pool, &children, false);
            index(&mut pool, &mut children, 2);
            check(&mut pool, &children, true);
            index(&mut pool, &mut children, 3);
            check(&mut pool, &children, true);
            evict_all_but(&mut pool, &mut children, Some(2));
            check(&mut pool, &children, true);
            evict_all_but(&mut pool, &mut children, None);
            check(&mut pool, &children, false);
            index(&mut pool, &mut children, 4);
            check(&mut pool, &children, false);
            index(&mut pool, &mut children, 5);
            check(&mut pool, &children, true);
            pool.release(&path);
        }
    }

    #[test]
    fn capacity_rounds_down_to_whole_blocks() {
        let pool = BlockPool::new(BLOCK_TOKENS * 10 + 7);
        assert_eq!(pool.capacity_blocks(), 10);
        assert_eq!(pool.free_blocks(), 10);
    }

    #[test]
    fn alloc_and_release_round_trip() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 8);
        let a = pool.alloc(3).expect("fits");
        assert_eq!(pool.free_blocks(), 5);
        assert_eq!(pool.referenced_blocks(), 3);
        assert!(pool.alloc(6).is_none(), "over-allocation must fail whole");
        assert_eq!(pool.free_blocks(), 5, "failed alloc must not consume");
        pool.release(&a);
        assert_eq!(pool.free_blocks(), 8);
        assert_eq!(pool.referenced_blocks(), 0);
    }

    #[test]
    fn index_match_and_share() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 16);
        let c = content(1);
        // Request A computes 4 full blocks and indexes them.
        let a = pool.alloc(4).unwrap();
        let (cur, n) = pool.extend_index(Cursor::root(), c, 0, &a);
        assert_ne!(cur, Cursor::root());
        assert_eq!(n, 4);
        assert_eq!(pool.indexed_blocks(), 4);

        // An identical request matches all 4 (capped below 5 blocks).
        let m = pool.acquire_prefix(c, 4 * BLOCK_TOKENS + 5);
        assert_eq!(m.blocks, a);
        assert_eq!(m.cached_tokens, 4 * BLOCK_TOKENS);
        assert!(m.cow_source.is_none());
        // Shared blocks are referenced twice now.
        pool.release(&m.blocks);
        pool.release(&a);
        // Fully released: cached, not free.
        assert_eq!(pool.referenced_blocks(), 0);
        assert_eq!(pool.cached_blocks(), 4);
        assert_eq!(pool.free_blocks(), 12);

        // A different lineage matches nothing.
        assert_eq!(pool.peek_prefix(content(2), 1024), 0);
        // Opaque content never matches.
        assert_eq!(pool.peek_prefix(PromptContent::Opaque, 1024), 0);
    }

    #[test]
    fn match_is_capped_by_limit() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 16);
        let c = content(3);
        let a = pool.alloc(4).unwrap();
        pool.extend_index(Cursor::root(), c, 0, &a);
        // A prompt of exactly 2 blocks + 1 token, capped at prompt-1: only
        // the first 2 full blocks match even though 4 are cached.
        let limit = 2 * BLOCK_TOKENS; // (2 blocks + 1 token) - 1
        let m = pool.acquire_prefix(c, limit);
        assert_eq!(m.blocks.len(), 2);
        // The third cached block partially covers the remaining 0 tokens —
        // nothing more to take.
        assert_eq!(m.cached_tokens, 2 * BLOCK_TOKENS);
        pool.release(&m.blocks);
        pool.release(&a);
    }

    #[test]
    fn copy_on_write_reuses_the_common_leading_tokens() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 16);
        // Conversation lineage 9: cache a 2-block chain.
        let c_long = content(9);
        let a = pool.alloc(2).unwrap();
        pool.extend_index(Cursor::root(), c_long, 0, &a);
        // A second request shares block 0 fully; its prompt ends 5 tokens
        // into block 1 (prompt = 16 + 5 = 21 tokens, limit 20 with the
        // one-token cap). Same stream => the 4 leading tokens of block 1
        // agree => copy-on-write.
        let m = pool.acquire_prefix(c_long, 20);
        assert_eq!(m.blocks.len(), 1, "one full block matched");
        assert_eq!(m.cow_source, Some(a[1]));
        assert_eq!(m.cached_tokens, 20, "16 full + 4 partial tokens");
        // The source is pinned: even releasing the original owner leaves it
        // referenced, so a same-admission allocation cannot evict it before
        // the copy happens.
        pool.release(&a);
        assert_eq!(pool.referenced_blocks(), 2);
        pool.release(&[m.cow_source.unwrap()]);
        pool.release(&m.blocks);
        assert_eq!(pool.referenced_blocks(), 0);
        assert_eq!(pool.cached_blocks(), 2);
    }

    #[test]
    fn divergent_streams_do_not_cow_match() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 16);
        let a = pool.alloc(1).unwrap();
        pool.extend_index(Cursor::root(), content(1), 0, &a);
        // A different lineage diverges at token 0: no partial match.
        let m = pool.acquire_prefix(content(2), BLOCK_TOKENS - 1);
        assert!(m.blocks.is_empty());
        assert_eq!(m.cached_tokens, 0);
        assert!(m.cow_source.is_none());
        pool.release(&a);
    }

    #[test]
    fn lru_evicts_oldest_leaf_first() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 4);
        // Two single-block chains, released in order 1 then 2.
        let b1 = pool.alloc(1).unwrap();
        pool.extend_index(Cursor::root(), content(1), 0, &b1);
        let b2 = pool.alloc(1).unwrap();
        pool.extend_index(Cursor::root(), content(2), 0, &b2);
        pool.release(&b1);
        pool.release(&b2);
        // Touch chain 1 so chain 2 becomes the LRU.
        let m = pool.acquire_prefix(content(1), BLOCK_TOKENS);
        pool.release(&m.blocks);
        assert_eq!(pool.cached_blocks(), 2);

        // Allocating 3 blocks: 2 free + 1 eviction, which must take chain 2.
        let big = pool.alloc(3).expect("eviction frees the LRU leaf");
        assert_eq!(pool.blocks_evicted(), 1);
        assert_eq!(pool.peek_prefix(content(1), BLOCK_TOKENS), BLOCK_TOKENS);
        assert_eq!(pool.peek_prefix(content(2), BLOCK_TOKENS), 0);
        pool.release(&big);
    }

    #[test]
    fn chains_evict_leaf_first_then_parent() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 3);
        let chain = pool.alloc(3).unwrap();
        pool.extend_index(Cursor::root(), content(7), 0, &chain);
        pool.release(&chain);
        assert_eq!(pool.cached_blocks(), 3);
        assert_eq!(pool.available_blocks(), 3, "whole chain is reclaimable");

        // One allocation must evict the *tail* block: the 2-block prefix
        // stays matchable.
        let one = pool.alloc(1).unwrap();
        assert_eq!(
            pool.peek_prefix(content(7), 3 * BLOCK_TOKENS),
            2 * BLOCK_TOKENS
        );
        let two = pool.alloc(2).unwrap();
        assert_eq!(pool.peek_prefix(content(7), 3 * BLOCK_TOKENS), 0);
        assert_eq!(pool.blocks_evicted(), 3);
        pool.release(&one);
        pool.release(&two);
        assert_eq!(pool.free_blocks(), 3);
    }

    #[test]
    fn referenced_blocks_are_never_evicted() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 2);
        let chain = pool.alloc(2).unwrap();
        pool.extend_index(Cursor::root(), content(5), 0, &chain);
        // Still referenced: nothing is available beyond the free list.
        assert_eq!(pool.available_blocks(), 0);
        assert!(pool.alloc(1).is_none());
        pool.release(&chain);
        assert_eq!(pool.available_blocks(), 2);
    }

    #[test]
    fn resident_decode_pins_shared_blocks_against_eviction() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 4);
        // One request computes and indexes a 2-block chain...
        let owner = pool.alloc(2).unwrap();
        pool.extend_index(Cursor::root(), content(11), 0, &owner);
        // ...and a "running decode" acquires that shared prefix.
        let decode = pool.acquire_prefix(content(11), 2 * BLOCK_TOKENS);
        assert_eq!(decode.blocks, owner);
        // The original owner finishes; the decode still references the chain.
        pool.release(&owner);
        assert_eq!(pool.referenced_blocks(), 2);
        // Allocation pressure must refuse rather than evict blocks a running
        // decode references: the chain is not in the evictable population.
        assert_eq!(pool.available_blocks(), 2);
        assert!(
            pool.alloc(3).is_none(),
            "must not evict a resident decode's shared blocks"
        );
        assert_eq!(pool.blocks_evicted(), 0);
        assert_eq!(
            pool.peek_prefix(content(11), 2 * BLOCK_TOKENS),
            2 * BLOCK_TOKENS,
            "the decode's prefix is intact after the refused allocation"
        );
        // Only once the decode releases does the chain become reclaimable.
        pool.release(&decode.blocks);
        assert_eq!(pool.available_blocks(), 4);
        let big = pool.alloc(4).expect("released chain is now evictable");
        assert_eq!(pool.blocks_evicted(), 2);
        pool.release(&big);
    }

    #[test]
    fn identical_chains_indexed_twice_keep_the_duplicate_private() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 8);
        let c = content(4);
        let a = pool.alloc(2).unwrap();
        pool.extend_index(Cursor::root(), c, 0, &a);
        // A concurrent identical request computed its own copies before
        // matching; indexing stops at the existing chain (descending would
        // leave the caller with a cursor into blocks it never referenced).
        let b = pool.alloc(2).unwrap();
        let (cur, n) = pool.extend_index(Cursor::root(), c, 0, &b);
        assert_eq!(cur, Cursor::root());
        assert_eq!(n, 0, "nothing registered over an existing chain");
        assert_eq!(pool.indexed_blocks(), 2, "no duplicate nodes");
        pool.release(&a);
        pool.release(&b);
        // The duplicates were private: they return to the free list.
        assert_eq!(pool.free_blocks(), 6);
        assert_eq!(pool.cached_blocks(), 2);
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let mut pool = BlockPool::new(1024);
        assert_eq!(pool.capacity_blocks() * BLOCK_TOKENS, 1024);
        assert!(pool.alloc_counted(blocks_for(100)));
        // 100 tokens round up to 7 blocks.
        assert_eq!(pool.referenced_blocks() * BLOCK_TOKENS, 112);
        pool.release_counted(blocks_for(100));
        assert_eq!(pool.referenced_blocks(), 0);
    }

    #[test]
    fn admission_fails_when_full() {
        let mut pool = BlockPool::new(160);
        assert!(pool.alloc_counted(blocks_for(128)));
        assert!(blocks_for(64) > pool.available_blocks());
        assert!(!pool.alloc_counted(blocks_for(64)));
        assert!(pool.alloc_counted(blocks_for(32)));
        assert_eq!(pool.free_blocks(), 0);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let mut pool = BlockPool::new(320);
        assert_eq!(pool.utilization(), 0.0);
        pool.alloc_counted(blocks_for(160));
        assert!((pool.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut pool = BlockPool::new(320);
        pool.release_counted(blocks_for(32));
    }

    #[test]
    fn blocks_round_up() {
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(16), 1);
        assert_eq!(blocks_for(17), 2);
    }

    /// Regression for the silent-truncation fix: capacity that is not a
    /// multiple of [`BLOCK_TOKENS`] rounds down explicitly, and every
    /// accounting quantity agrees with the rounded capacity.
    #[test]
    fn capacity_rounds_down_to_a_block_multiple() {
        for (given, expect) in [(1000, 992), (15, 0), (16, 16), (17, 16), (0, 0)] {
            let pool = BlockPool::new(given);
            let capacity_tokens = pool.capacity_blocks() * BLOCK_TOKENS;
            assert_eq!(capacity_tokens, expect, "capacity_tokens({given})");
            assert_eq!(
                pool.free_blocks() * BLOCK_TOKENS,
                expect,
                "free_tokens({given})"
            );
            assert_eq!(capacity_tokens % BLOCK_TOKENS, 0);
        }
        // A sub-block pool grants nothing, gracefully.
        let mut tiny = BlockPool::new(BLOCK_TOKENS - 1);
        assert!(blocks_for(1) > tiny.available_blocks());
        assert!(!tiny.alloc_counted(blocks_for(1)));
        assert_eq!(tiny.utilization(), 0.0);
    }

    /// Property: over arbitrary admit/free cycles of counted grants, block
    /// accounting never leaks — used + free always equals capacity, a grant
    /// succeeds exactly when it fits, a failed grant changes nothing, and
    /// once every grant is released the pool is exactly empty again.
    #[test]
    fn random_admit_free_cycles_never_leak_blocks() {
        let mut rng = SplitMix64::seed_from_u64(0xB10C5);
        for case in 0..50 {
            let capacity_tokens = (1 + rng.next_usize(64)) * BLOCK_TOKENS;
            let mut pool = BlockPool::new(capacity_tokens);
            let used_tokens = |pool: &BlockPool| pool.referenced_blocks() * BLOCK_TOKENS;
            let mut live: Vec<usize> = Vec::new();
            for step in 0..200 {
                let admit = live.is_empty() || rng.next_usize(2) == 0;
                if admit {
                    let tokens = 1 + rng.next_usize(capacity_tokens + 32);
                    let before_used = used_tokens(&pool);
                    let fits = blocks_for(tokens) <= pool.available_blocks();
                    let reserved = pool.alloc_counted(blocks_for(tokens));
                    assert_eq!(
                        fits, reserved,
                        "case {case} step {step}: availability and the grant disagree"
                    );
                    if reserved {
                        live.push(tokens);
                    } else {
                        assert_eq!(
                            used_tokens(&pool),
                            before_used,
                            "case {case} step {step}: failed grant must not change usage"
                        );
                    }
                } else {
                    let tokens = live.swap_remove(rng.next_usize(live.len()));
                    pool.release_counted(blocks_for(tokens));
                }
                let expected_used: usize = live.iter().map(|&t| blocks_for(t) * BLOCK_TOKENS).sum();
                assert_eq!(
                    used_tokens(&pool),
                    expected_used,
                    "case {case} step {step}: usage must equal the live grants"
                );
                assert_eq!(
                    used_tokens(&pool) + pool.free_blocks() * BLOCK_TOKENS,
                    capacity_tokens,
                    "case {case} step {step}: used + free must equal capacity"
                );
                assert!(pool.utilization() <= 1.0);
            }
            for tokens in live.drain(..) {
                pool.release_counted(blocks_for(tokens));
            }
            assert_eq!(used_tokens(&pool), 0, "case {case}: blocks leaked");
            assert_eq!(pool.utilization(), 0.0);
        }
    }

    /// Counted and named grants draw on one capacity: the O(1) reject in
    /// `alloc` counts granted blocks, `take_free` never hands out the free
    /// blocks that back a grant (eviction supplies named blocks instead),
    /// and a counted grant evicts cached prefixes when free blocks run out.
    #[test]
    fn counted_and_named_grants_share_one_pool() {
        let mut pool = BlockPool::new(BLOCK_TOKENS * 8);
        // A 4-block chain is computed, indexed and released: 4 cached
        // blocks, 4 never-used ones.
        let chain = pool.alloc(4).unwrap();
        pool.extend_index(Cursor::root(), content(21), 0, &chain);
        pool.release(&chain);
        assert_eq!((pool.cached_blocks(), pool.free_blocks()), (4, 4));

        // A counted grant of 4 is backed by the 4 free blocks.
        assert!(pool.alloc_counted(4));
        assert_eq!(pool.referenced_blocks(), 4);
        assert_eq!(pool.free_blocks(), 0);
        assert_eq!(pool.blocks_evicted(), 0);

        // Named blocks must come from eviction, not from the granted ones.
        let named = pool.alloc(2).expect("two cached leaves are evictable");
        assert_eq!(pool.blocks_evicted(), 2);
        assert_eq!(
            pool.peek_prefix(content(21), 4 * BLOCK_TOKENS),
            2 * BLOCK_TOKENS
        );
        // O(1) reject: 6 of 8 blocks are held, so 3 can never fit, and the
        // doomed request evicts nothing.
        assert!(pool.alloc(3).is_none());
        assert!(!pool.alloc_counted(3));
        assert_eq!(pool.blocks_evicted(), 2);

        // A counted grant evicts the remaining cached prefix.
        assert!(pool.alloc_counted(2));
        assert_eq!(pool.blocks_evicted(), 4);
        assert_eq!(pool.referenced_blocks(), 8);
        assert_eq!(pool.utilization(), 1.0);

        // Releasing both kinds returns every block to the free population.
        pool.release(&named);
        pool.release_counted(6);
        assert_eq!(pool.referenced_blocks(), 0);
        assert_eq!(pool.free_blocks(), 8);
        assert_eq!(pool.cached_blocks(), 0);
    }

    /// Property: over random alloc / index / match / release traffic the
    /// three populations always partition the capacity, availability is
    /// honored exactly, and draining every reference leaves only cached or
    /// free blocks.
    #[test]
    fn random_traffic_never_leaks_or_double_books() {
        let mut rng = SplitMix64::seed_from_u64(0xB10C_CA5E);
        for case in 0..30 {
            let capacity = 4 + rng.next_usize(40);
            let mut pool = BlockPool::new(capacity * BLOCK_TOKENS);
            // Live "requests": (blocks, lineage, indexed?).
            let mut live: Vec<(Vec<BlockId>, u64, bool)> = Vec::new();
            for step in 0..300 {
                match rng.next_usize(4) {
                    // Admit: match + alloc a 1..6-block chain.
                    0 | 1 => {
                        let lineage = 1 + rng.next_usize(6) as u64;
                        let want = 1 + rng.next_usize(5);
                        let c = content(lineage);
                        let m = pool.acquire_prefix(c, want * BLOCK_TOKENS);
                        let need = want - m.blocks.len();
                        let mut blocks = m.blocks;
                        match pool.alloc(need) {
                            Some(fresh) => {
                                blocks.extend(fresh);
                                live.push((blocks, lineage, false));
                            }
                            None => pool.release(&blocks),
                        }
                    }
                    // Index a live chain.
                    2 => {
                        if let Some(i) = (!live.is_empty()).then(|| rng.next_usize(live.len())) {
                            let (blocks, lineage, indexed) = &mut live[i];
                            if !*indexed {
                                pool.extend_index(
                                    Cursor::root(),
                                    content(*lineage),
                                    0,
                                    &blocks.clone(),
                                );
                                *indexed = true;
                            }
                        }
                    }
                    // Release a live chain.
                    _ => {
                        if !live.is_empty() {
                            let (blocks, _, _) = live.swap_remove(rng.next_usize(live.len()));
                            pool.release(&blocks);
                        }
                    }
                }
                let used = pool.referenced_blocks();
                let cached = pool.cached_blocks();
                let free = pool.free_blocks();
                assert_eq!(
                    used + cached + free,
                    capacity,
                    "case {case} step {step}: populations must partition capacity"
                );
                assert!(pool.available_blocks() <= cached + free);
            }
            for (blocks, _, _) in live.drain(..) {
                pool.release(&blocks);
            }
            assert_eq!(pool.referenced_blocks(), 0, "case {case}: leaked refs");
            assert_eq!(
                pool.cached_blocks() + pool.free_blocks(),
                capacity,
                "case {case}: blocks lost"
            );
            // Everything cached is reclaimable once nothing is referenced.
            assert_eq!(pool.available_blocks(), capacity);
        }
    }
}
