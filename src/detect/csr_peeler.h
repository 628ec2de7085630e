// CSR-native greedy densest-block peeling (the FRAUDAR-style greedy of
// paper Algorithm 1, lines 3-8) that peels **in place** over an immutable
// CsrGraph plus an alive-edge set, instead of materializing a compacted
// subgraph per call.
//
// This is what makes iterated FDET cheap: each block iteration used to
// rebuild a subgraph (sort + two hash maps + two CSR constructions) just
// to peel it once; CsrPeeler reuses one set of flat scratch arrays
// (degrees, priorities, removal flags, an indexed min-heap) across
// iterations.
//
// The scratch arrays live in a PeelScratch arena that callers may own
// externally: the ensemble hot loop keeps one arena per worker thread so
// running FDET on thousands of sampled residuals performs zero arena
// allocations after warm-up (DESIGN.md §"Ensemble hot loop"). The
// residual — a sampled member's edge mask, or every edge of the graph for
// a plain RunFdet — is cached once by SetResidualView() as compact
// slot-aligned rows (edge ids, endpoints, weights — one pass of parent
// gathers), after which PeelAliveInView() runs every FDET iteration
// touching only residual-sized arrays: per-call initialization is
// O(|residual|) streaming — not O(|U| + |V|) and not O(parent-degree
// sums) — so peeling a sampled residual of a huge shared parent costs
// what peeling the equivalent materialized child would, without building
// it.
//
// Bit-exactness contract (the one place it is stated): PeelAliveInView
// over a residual edge set performs the identical floating-point
// operations in the identical order as the seed PeelDensestBlock over the
// compacted subgraph of that edge set (SubgraphFromEdges) — same per-node
// accumulation order, same heap insertion order, same smaller-id
// tie-breaks under the order-isomorphic id relabeling — so scores, block
// node sets, traces, and removal orders match the seed peeler exactly.
// tests/csr_parity_test.cc pins the peel; tests/csr_parity_test.cc and
// tests/ensemble_parity_test.cc pin the FDET and ensemble loops built on
// it.
#ifndef ENSEMFDET_DETECT_CSR_PEELER_H_
#define ENSEMFDET_DETECT_CSR_PEELER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "detect/density.h"
#include "detect/greedy_peeler.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

namespace detail {

// Indexed 4-ary min-heap over (key, id) with Floyd bulk-build — the peel
// loop's priority queue. Build is O(n) (instead of n·log n pushes) and
// the entry array is reused across peels. Arity 4 halves the levels a
// sift traverses versus a binary heap and puts all four children of a
// node in one cache line (4 × 16-byte entries).
//
// Ids are *dense per-peel slots* (0..n-1 in Append order), not graph node
// ids: the caller appends participants in ascending packed-node order and
// keeps a slot↔node mapping, so every array the sift chain touches
// (entries, positions) is sized to the residual — L1-resident for sampled
// ensemble members — instead of to the whole parent graph.
//
// Output-equivalence note: PopMin returns the *global* minimum under the
// total order (key, then smaller id) of the alive entries, so the pop
// sequence is a pure function of the key arithmetic — identical to
// IndexedMinHeap's regardless of arity, internal layout, or Append
// order; and because the dense slot assignment is monotone in packed
// node id, (key, slot) ties break exactly like (key, node). AddTo
// applies `key + delta` exactly like IndexedMinHeap::AddToKey,
// preserving bit-exact parity with the seed peeler.
class PeelHeap {
 public:
  /// Empty heap with zero id capacity; call EnsureCapacity before use.
  PeelHeap() = default;
  /// Heap over ids [0, capacity), initially empty.
  explicit PeelHeap(int64_t capacity);

  /// Grows the id capacity to at least `capacity` (never shrinks).
  /// Returns true if backing storage actually grew.
  bool EnsureCapacity(int64_t capacity);

  bool empty() const { return heap_.empty(); }
  int64_t size() const { return static_cast<int64_t>(heap_.size()); }

  /// Appends an entry for `id` without restoring heap order (any stale
  /// position bookkeeping for `id` from earlier builds is overwritten).
  /// Call Heapify() after the last append and before any PopMin/AddTo.
  void Append(int64_t id, double key);
  /// Floyd heapify over everything appended so far; O(n).
  void Heapify();

  /// Removes and returns the smallest-(key, id) entry. Internally uses the
  /// bottom-up "bounce" reinsertion (hole walks to a leaf choosing the
  /// smallest child, then the displaced last entry sifts up from there):
  /// fewer comparisons than the textbook sift-down, because the displaced
  /// entry of a min-heap almost always belongs near the leaves. The
  /// resulting layout can differ from the textbook variant's, but the pop
  /// sequence cannot — it is the (key, id) total order either way.
  int64_t PopMin();

  /// Adds `delta` (≤ 0 during peeling) to a contained id's key.
  void AddTo(int64_t id, double delta);

  /// Discards every remaining entry in O(size) without sifting — used
  /// when a peel proves no further pop can matter (mass exhausted).
  void Clear();

 private:
  static constexpr size_t kArity = 4;
  struct Entry {
    double key;
    int64_t id;
  };
  bool Less(const Entry& a, const Entry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
  /// Index of the smallest child of `i`, or `size` when `i` is a leaf.
  size_t MinChild(size_t i) const;
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void Place(size_t i, Entry e);

  std::vector<Entry> heap_;
  std::vector<int64_t> pos_;  // dense id → heap index; stale once popped
};

}  // namespace detail

/// Externally ownable arena of every buffer CsrPeeler (and the FDET
/// driver, detect/fdet.h) needs: degree/priority/flag arrays, the peel
/// heap and the residual-view rows. PrepareView() grows buffers to fit a
/// residual and counts growth events, so a warm arena reused across many
/// peels reports zero further allocations — the number the ensemble bench
/// surfaces as `arena.grow_events`.
///
/// Every per-node buffer is indexed by *member-dense* ids and sized by
/// the residual (at most min(|mask|, |U|) users and min(|mask|, |V|)
/// merchants), not by the parent graph; only `merchant_degree` and
/// `dense_of`, which SetResidualView indexes by parent merchant id, are
/// parent-merchant sized.
///
/// Invariants between uses (established by PrepareView on fresh storage
/// and restored by every peel / FDET run): `user_degree`,
/// `merchant_degree`, `gone`, `in_block_user`, `in_block_merchant` and
/// `view_alive` / `view_alive_m` are all-zero over their prepared extent
/// and the heap is empty. Buffers never shrink; an arena sized for one
/// residual is warm for any residual no larger, of a graph with no more
/// merchants.
///
/// @note Thread-safety: an arena is mutable state — one per thread.
struct PeelScratch {
  std::vector<int64_t> user_degree;
  std::vector<int64_t> merchant_degree;
  std::vector<double> col_weight;
  std::vector<double> priority;
  std::vector<uint8_t> removed;
  std::vector<uint8_t> gone;
  detail::PeelHeap heap;
  /// Member nodes incident to the current alive residual, ascending.
  std::vector<UserId> incident_users;
  std::vector<MerchantId> incident_merchants;
  std::vector<int64_t> removal_order;
  /// Parent merchant → member merchant id, valid only while
  /// SetResidualView fills the per-slot rows.
  std::vector<int32_t> dense_of;
  /// Block-membership flags (member ids) for FDET's edge removal.
  std::vector<uint8_t> in_block_user;
  std::vector<uint8_t> in_block_merchant;
  /// Residual view (CsrPeeler::SetResidualView): the residual edge set
  /// renumbered once into *member-dense* node ids — incident users
  /// 0..Uₘ-1 and merchants 0..Vₘ-1, both ascending in parent id — with
  /// every per-slot array compact and slot-aligned. One pass of parent
  /// gathers per residual; after it, PeelAliveInView and the FDET driver
  /// stream only these residual-sized arrays, exactly like peeling a
  /// materialized child, without building one. The member numbering is
  /// monotone in parent id on each side, so member-space heap
  /// tie-breaks, sorts, and ascending outputs map 1:1 onto parent-space
  /// ones. Slot i is the caller's mask[i]; the mask itself is borrowed,
  /// not copied.
  std::vector<double> view_weight_of;        ///< edge weight per mask slot
  std::vector<int32_t> view_user_dense;      ///< member user id per slot
  std::vector<int32_t> view_merchant_dense;  ///< packed Uₘ+j per slot
  std::vector<int64_t> view_merchant_slot;   ///< mask slot → merchant slot
  std::vector<uint8_t> view_alive;           ///< per mask slot (driver-owned)
  std::vector<uint8_t> view_alive_m;         ///< same flag per merchant slot
  std::vector<double> view_user_mass;        ///< per-peel mass per mask slot
  std::vector<double> view_merchant_mass;    ///< per-peel mass per m-slot
  std::vector<int32_t> view_merchant_user_dense;  ///< member user per m-slot
  std::vector<UserId> member_users;          ///< member user → parent user
  std::vector<MerchantId> member_merchants;  ///< member merchant → parent
  std::vector<int64_t> member_user_begin;    ///< member user → first slot
  std::vector<int64_t> member_user_end;
  std::vector<int64_t> member_merchant_begin;  ///< member merchant → m-slots
  std::vector<int64_t> member_merchant_end;
  /// Uₘ of the current view (member merchant packed ids start here).
  int64_t member_user_count = 0;

  /// Cumulative count of buffer growth events across all PrepareView()
  /// calls; stays flat once the arena is warm for the graphs and
  /// residuals it serves.
  int64_t grow_events = 0;

  /// Sizes every buffer for a residual of `mask_size` edges of `graph`
  /// (growing, never shrinking), adds the number of buffers that had to
  /// grow to `grow_events` and returns it (0 when already warm).
  /// Per-member-node buffers get min(mask_size, users or merchants)
  /// entries: a residual touches no more nodes than it has edges, nor
  /// than the graph has.
  int64_t PrepareView(const CsrGraph& graph, int64_t mask_size);
};

/// Reusable in-place peeler over one immutable CsrGraph.
///
/// @note Thread-safety: the referenced CsrGraph is shared and immutable,
///       but the scratch arena is mutable — use one arena per thread.
class CsrPeeler {
 public:
  /// Borrows `graph` and an arena (both must outlive the peeler).
  /// Construction against a warm arena performs no allocation — the
  /// ensemble hot loop's mode.
  CsrPeeler(const CsrGraph& graph, PeelScratch* scratch);

  /// Caches `mask` (the residual edge set — a member's sample, or every
  /// edge of the graph — ascending, duplicate-free) as the residual view:
  /// sizes the arena for it, then one pass of parent gathers renumbers
  /// the incident nodes into member-dense ids and builds slot-aligned
  /// endpoint/weight rows in the arena — no allocation when warm, no hash
  /// maps, no graph construction. Subsequent PeelAliveInView() calls run
  /// entirely over these compact arrays. The mask is borrowed, not
  /// copied: it must stay alive and unchanged while the view is used.
  void SetResidualView(std::span<const EdgeId> mask);

  /// View-driven peel of the *alive subset* of the residual view: peels
  /// the subgraph formed by the mask slots whose `view_alive` flag is set
  /// (only nodes incident to an alive edge take part) down to nothing,
  /// returning the argmax-φ prefix block. The caller owns the alive flags
  /// (setting both per-slot copies for the whole mask before the first
  /// call and clearing edges between calls as blocks are removed —
  /// exactly FDET's loop) and must clear them when done. Every edge
  /// weight is scaled by `weight_scale` on the fly — bit-identical to
  /// peeling a materialized subgraph whose stored weights were
  /// pre-multiplied by the same factor (Theorem 1's 1/p reweighting
  /// without a reweighted copy); pass 1.0 for no scaling.
  ///
  /// result.users / result.merchants are *member-dense* ids, ascending —
  /// translate through `member_users` / `member_merchants`;
  /// result.removal_order (kept with the trace) is already in the
  /// parent's packed ids. See the header comment for the bit-exactness
  /// contract against PeelDensestBlock.
  ///
  /// @pre SetResidualView() was called for this mask.
  /// @post an empty alive set yields an empty block with score 0.
  PeelResult PeelAliveInView(const DensityConfig& config, double weight_scale,
                             bool keep_trace = false);

 private:
  const CsrGraph* graph_;
  PeelScratch* s_;
  std::span<const EdgeId> mask_;  // the borrowed residual view's slots
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_DETECT_CSR_PEELER_H_
