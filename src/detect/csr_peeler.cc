#include "detect/csr_peeler.h"

#include <algorithm>

#include "common/logging.h"
#include "detect/simd/kernels.h"

namespace ensemfdet {

namespace detail {

PeelHeap::PeelHeap(int64_t capacity) { EnsureCapacity(capacity); }

bool PeelHeap::EnsureCapacity(int64_t capacity) {
  bool grew = false;
  if (pos_.size() < static_cast<size_t>(capacity)) {
    pos_.resize(static_cast<size_t>(capacity), -1);
    grew = true;
  }
  if (heap_.capacity() < static_cast<size_t>(capacity)) {
    heap_.reserve(static_cast<size_t>(capacity));
    grew = true;
  }
  return grew;
}

void PeelHeap::Place(size_t i, Entry e) {
  heap_[i] = e;
  pos_[static_cast<size_t>(e.id)] = static_cast<int64_t>(i);
}

void PeelHeap::Append(int64_t id, double key) {
  ENSEMFDET_DCHECK(id >= 0 && id < static_cast<int64_t>(pos_.size()));
  heap_.push_back({key, id});
  pos_[static_cast<size_t>(id)] =
      static_cast<int64_t>(heap_.size()) - 1;
}

void PeelHeap::Heapify() {
  if (heap_.size() < 2) return;
  // Floyd: sift down every internal node, last first. The last internal
  // node is the parent of the last entry.
  for (size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
    SiftDown(i);
  }
}

size_t PeelHeap::MinChild(size_t i) const {
  const size_t n = heap_.size();
  const size_t first = kArity * i + 1;
  if (first >= n) return n;
  const size_t last = std::min(first + kArity, n);
  size_t best = first;
  for (size_t c = first + 1; c < last; ++c) {
    if (Less(heap_[c], heap_[best])) best = c;
  }
  return best;
}

void PeelHeap::SiftUp(size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Less(e, heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, e);
}

void PeelHeap::SiftDown(size_t i) {
  Entry e = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    const size_t child = MinChild(i);
    if (child >= n || !Less(heap_[child], e)) break;
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, e);
}

int64_t PeelHeap::PopMin() {
  ENSEMFDET_CHECK(!heap_.empty());
  const int64_t id = heap_[0].id;
  pos_[static_cast<size_t>(id)] = -1;  // keeps AddTo's misuse DCHECK live
  Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Bottom-up reinsertion: walk the root hole to a leaf along smallest
    // children (no comparison against `last` on the way down), then sift
    // the displaced last entry up from the leaf hole — it rarely rises.
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      const size_t child = MinChild(i);
      if (child >= n) break;
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, last);
    SiftUp(i);
  }
  return id;
}

void PeelHeap::Clear() {
  // O(size): invalidate contained positions so AddTo on a cleared id
  // still trips its DCHECK instead of mutating an unrelated entry later.
  for (const Entry& e : heap_) pos_[static_cast<size_t>(e.id)] = -1;
  heap_.clear();
}

void PeelHeap::AddTo(int64_t id, double delta) {
  ENSEMFDET_DCHECK(pos_[static_cast<size_t>(id)] >= 0);
  ENSEMFDET_DCHECK(delta <= 0.0);
  const size_t i = static_cast<size_t>(pos_[static_cast<size_t>(id)]);
  // Same arithmetic as IndexedMinHeap::AddToKey: key ← key + delta.
  heap_[i].key = heap_[i].key + delta;
  SiftUp(i);
}

}  // namespace detail

namespace {

// Resize-to-fit helpers that count growth events: vectors only grow, new
// elements are value-initialized (zero), so the PeelScratch all-zero
// invariants hold over the freshly prepared extent.
template <typename T>
void GrowTo(std::vector<T>* v, int64_t n, int64_t* grew) {
  if (v->size() < static_cast<size_t>(n)) {
    v->resize(static_cast<size_t>(n));
    ++*grew;
  }
}

template <typename T>
void ReserveTo(std::vector<T>* v, int64_t n, int64_t* grew) {
  if (v->capacity() < static_cast<size_t>(n)) {
    v->reserve(static_cast<size_t>(n));
    ++*grew;
  }
}

}  // namespace

int64_t PeelScratch::Prepare(const CsrGraph& graph) {
  const int64_t users = graph.num_users();
  const int64_t merchants = graph.num_merchants();
  const int64_t nodes = graph.num_nodes();
  int64_t grew = 0;
  GrowTo(&user_degree, users, &grew);
  GrowTo(&merchant_degree, merchants, &grew);
  GrowTo(&col_weight, merchants, &grew);
  GrowTo(&priority, nodes, &grew);
  GrowTo(&removed, nodes, &grew);
  GrowTo(&gone, nodes, &grew);
  if (heap.EnsureCapacity(nodes)) ++grew;
  GrowTo(&dense_of, merchants, &grew);
  ReserveTo(&incident_users, users, &grew);
  ReserveTo(&incident_merchants, merchants, &grew);
  ReserveTo(&removal_order, nodes, &grew);
  GrowTo(&in_block_user, users, &grew);
  GrowTo(&in_block_merchant, merchants, &grew);
  grow_events += grew;
  return grew;
}

int64_t PeelScratch::PrepareView(int64_t mask_size) {
  // Per-slot buffers are sized by the residual (a sampled mask is
  // ~S·|E|); per-member-node rows by the most nodes a residual of that
  // size can touch — never more than its edges, nor than the prepared
  // graph has.
  const int64_t max_users =
      std::min(mask_size, static_cast<int64_t>(user_degree.size()));
  const int64_t max_merchants =
      std::min(mask_size, static_cast<int64_t>(merchant_degree.size()));
  int64_t grew = 0;
  ReserveTo(&view_mask, mask_size, &grew);
  GrowTo(&view_weight_of, mask_size, &grew);
  GrowTo(&view_user_dense, mask_size, &grew);
  GrowTo(&view_merchant_dense, mask_size, &grew);
  GrowTo(&view_merchant_slot, mask_size, &grew);
  GrowTo(&view_alive, mask_size, &grew);
  GrowTo(&view_alive_m, mask_size, &grew);
  GrowTo(&view_user_mass, mask_size, &grew);
  GrowTo(&view_merchant_mass, mask_size, &grew);
  GrowTo(&view_merchant_user_dense, mask_size, &grew);
  ReserveTo(&member_users, max_users, &grew);
  ReserveTo(&member_merchants, max_merchants, &grew);
  GrowTo(&member_user_begin, max_users, &grew);
  GrowTo(&member_user_end, max_users, &grew);
  GrowTo(&member_merchant_begin, max_merchants, &grew);
  GrowTo(&member_merchant_end, max_merchants, &grew);
  grow_events += grew;
  return grew;
}

CsrPeeler::CsrPeeler(const CsrGraph& graph, PeelScratch* scratch)
    : graph_(&graph), s_(scratch) {
  ENSEMFDET_DCHECK(scratch != nullptr);
  s_->Prepare(graph);
}

void CsrPeeler::SetResidualView(std::span<const EdgeId> mask) {
  const CsrGraph& graph = *graph_;
  PeelScratch& s = *s_;
  s.PrepareView(static_cast<int64_t>(mask.size()));
  s.view_mask.assign(mask.begin(), mask.end());
  const int64_t mask_size = static_cast<int64_t>(s.view_mask.size());

  // Pass 1 — the one pass of parent-array gathers per member: edge
  // weights, member-dense user numbering (the ascending mask groups by
  // user, so users are runs and come out ascending), user rows, and
  // distinct-merchant collection (borrowing the all-zero merchant_degree
  // array for counts).
  s.member_users.clear();
  s.incident_merchants.clear();
  for (int64_t i = 0; i < mask_size; ++i) {
    const EdgeId e = s.view_mask[static_cast<size_t>(i)];
    ENSEMFDET_DCHECK(e >= 0 && e < graph.num_edges());
    ENSEMFDET_DCHECK(i == 0 || s.view_mask[static_cast<size_t>(i - 1)] < e);
    s.view_weight_of[static_cast<size_t>(i)] = graph.edge_weight(e);
    const UserId u = graph.edge_user(e);
    if (s.member_users.empty() || s.member_users.back() != u) {
      ENSEMFDET_DCHECK(s.member_users.empty() || s.member_users.back() < u);
      if (!s.member_users.empty()) {
        s.member_user_end[s.member_users.size() - 1] = i;
      }
      s.member_user_begin[s.member_users.size()] = i;
      s.member_users.push_back(u);
    }
    s.view_user_dense[static_cast<size_t>(i)] =
        static_cast<int32_t>(s.member_users.size() - 1);
    const MerchantId v = graph.edge_merchant(e);
    if (s.merchant_degree[v]++ == 0) s.incident_merchants.push_back(v);
  }
  if (!s.member_users.empty()) {
    s.member_user_end[s.member_users.size() - 1] = mask_size;
  }
  const int64_t num_member_users =
      static_cast<int64_t>(s.member_users.size());
  s.member_user_count = num_member_users;

  // Member-dense merchant numbering (ascending parent order) and
  // counting-sorted merchant rows; `dense_of` holds the parent→member
  // merchant map just long enough to fill the per-slot arrays.
  std::sort(s.incident_merchants.begin(), s.incident_merchants.end());
  s.member_merchants.assign(s.incident_merchants.begin(),
                            s.incident_merchants.end());
  int64_t offset = 0;
  for (size_t j = 0; j < s.member_merchants.size(); ++j) {
    const MerchantId v = s.member_merchants[j];
    s.dense_of[v] = static_cast<int32_t>(j);
    s.member_merchant_begin[j] = offset;
    s.member_merchant_end[j] = offset;  // fill cursor, ends at begin + count
    offset += s.merchant_degree[v];
  }
  for (int64_t i = 0; i < mask_size; ++i) {
    const MerchantId v =
        graph.edge_merchant(s.view_mask[static_cast<size_t>(i)]);
    const int32_t j = s.dense_of[v];
    const int64_t slot = s.member_merchant_end[j]++;
    s.view_merchant_dense[static_cast<size_t>(i)] =
        static_cast<int32_t>(num_member_users + j);
    s.view_merchant_slot[static_cast<size_t>(i)] = slot;
    s.view_merchant_user_dense[static_cast<size_t>(slot)] =
        s.view_user_dense[static_cast<size_t>(i)];
  }
  for (MerchantId v : s.member_merchants) s.merchant_degree[v] = 0;
}

PeelResult CsrPeeler::PeelAliveInView(const DensityConfig& config,
                                      double weight_scale, bool keep_trace) {
  PeelResult result;
  PeelScratch& s = *s_;
  const int64_t mask_size = static_cast<int64_t>(s.view_mask.size());
  if (mask_size == 0) return result;
  const int64_t num_users = s.member_user_count;  // member-space Uₘ

  s.incident_users.clear();
  s.incident_merchants.clear();

  const simd::KernelTable& kern = simd::ActiveKernels();
  const uint8_t* alive_map = s.view_alive.data();

  // Streaming initialization over the slot-aligned view, entirely in
  // member-dense id space: the alive slots of the ascending mask ARE the
  // residual list in ascending order, so every first-touch and
  // accumulation below happens in exactly the order the seed peeler
  // performs it on the compacted subgraph, and the member numbering is
  // monotone in parent id, so all id-based tie-breaks agree too. The
  // alive-bitmap scan is the dispatched kernel (integer — exact at every
  // ISA level); the per-slot work stays scalar and in slot order.
  for (int64_t i = kern.next_alive(alive_map, mask_size, 0); i < mask_size;
       i = kern.next_alive(alive_map, mask_size, i + 1)) {
    const int32_t mu = s.view_user_dense[static_cast<size_t>(i)];
    const int32_t mj = s.view_merchant_dense[static_cast<size_t>(i)] -
                       static_cast<int32_t>(num_users);
    if (s.user_degree[mu]++ == 0) {
      s.incident_users.push_back(static_cast<UserId>(mu));
      s.priority[mu] = 0.0;
    }
    if (s.merchant_degree[mj]++ == 0) {
      s.priority[static_cast<size_t>(num_users + mj)] = 0.0;
    }
  }
  // Incident merchants, ascending: a compact scan of the member merchant
  // range beats sorting a collected list (degrees are all-zero outside
  // the alive set).
  const int64_t num_member_merchants =
      static_cast<int64_t>(s.member_merchants.size());
  for (int64_t mj = 0; mj < num_member_merchants; ++mj) {
    if (s.merchant_degree[static_cast<size_t>(mj)] > 0) {
      s.incident_merchants.push_back(static_cast<MerchantId>(mj));
      s.col_weight[static_cast<size_t>(mj)] = MerchantColumnWeight(
          static_cast<double>(s.merchant_degree[static_cast<size_t>(mj)]),
          config);
    }
  }
  if (s.incident_users.empty() && s.incident_merchants.empty()) {
    return result;  // no alive edges
  }

  // Edge masses: the dispatched gather kernel fills view_user_mass for
  // EVERY slot (branch-free; dead-slot outputs are garbage nothing
  // reads — every view array is fully populated by SetResidualView and
  // col_weight holds only finite values, so the dead lanes are safe to
  // compute). Each lane is the same two IEEE multiplies as the scalar
  // expression, elementwise — bit-exact at every ISA level. The
  // accumulation pass below then runs scalar, in ascending slot order,
  // so `mass` and the priorities sum in exactly the seed's order.
  kern.gather_slot_mass(s.view_weight_of.data(), s.view_merchant_dense.data(),
                        static_cast<int32_t>(num_users), s.col_weight.data(),
                        weight_scale, mask_size, s.view_user_mass.data());
  double mass = 0.0;
  for (int64_t i = kern.next_alive(alive_map, mask_size, 0); i < mask_size;
       i = kern.next_alive(alive_map, mask_size, i + 1)) {
    const int32_t mu = s.view_user_dense[static_cast<size_t>(i)];
    const int32_t packed_mv = s.view_merchant_dense[static_cast<size_t>(i)];
    const double w = s.view_user_mass[static_cast<size_t>(i)];
    s.view_merchant_mass[static_cast<size_t>(
        s.view_merchant_slot[static_cast<size_t>(i)])] = w;
    s.priority[static_cast<size_t>(mu)] += w;
    s.priority[static_cast<size_t>(packed_mv)] += w;
    mass += w;
  }

  // Heap over member packed ids (users then merchants, each ascending —
  // monotone in parent packed id, so (key, id) ties break exactly like
  // the seed). PopMin is a pure function of that total order, so bulk
  // Floyd build yields the exact pop sequence of one-by-one pushes.
  ENSEMFDET_DCHECK(s.heap.empty());
  for (UserId mu : s.incident_users) {
    s.heap.Append(mu, s.priority[mu]);
    s.removed[mu] = 0;
  }
  for (MerchantId mj : s.incident_merchants) {
    const int64_t id = num_users + mj;
    s.heap.Append(id, s.priority[static_cast<size_t>(id)]);
    s.removed[static_cast<size_t>(id)] = 0;
  }
  s.heap.Heapify();
  int64_t alive = s.heap.size();
  const int64_t peel_steps = alive;

  s.removal_order.clear();
  if (keep_trace) result.trace.reserve(static_cast<size_t>(peel_steps));

  double best_phi = -1.0;
  int64_t best_prefix = 0;  // number of removals before the best state

  for (int64_t t = 0; t < peel_steps; ++t) {
    const double phi =
        alive > 0 ? std::max(0.0, mass) / static_cast<double>(alive) : 0.0;
    if (keep_trace) result.trace.push_back(phi);
    if (phi > best_phi) {
      best_phi = phi;
      best_prefix = t;
    }

    // Mass exhaustion: every mass update subtracts a nonnegative edge
    // mass, so `mass` is non-increasing and once ≤ 0 every future φ is
    // exactly 0 — with the strict `>` above, best_prefix can never move
    // again. The remaining pops are a zero-key tail; skip them (and bulk-
    // clear the heap) unless the caller wants the full trace.
    if (!keep_trace && mass <= 0.0) break;

    const int64_t victim = s.heap.PopMin();
    s.removed[static_cast<size_t>(victim)] = 1;
    --alive;
    s.removal_order.push_back(victim);

    if (victim < num_users) {
      for (int64_t idx = s.member_user_begin[victim];
           idx < s.member_user_end[victim]; ++idx) {
        if (!s.view_alive[static_cast<size_t>(idx)]) continue;
        const int32_t other = s.view_merchant_dense[static_cast<size_t>(idx)];
        if (s.removed[static_cast<size_t>(other)]) continue;  // edge dead
        const double w = s.view_user_mass[static_cast<size_t>(idx)];
        mass -= w;
        s.heap.AddTo(other, -w);
      }
    } else {
      const int64_t mj = victim - num_users;
      for (int64_t idx = s.member_merchant_begin[mj];
           idx < s.member_merchant_end[mj]; ++idx) {
        if (!s.view_alive_m[static_cast<size_t>(idx)]) continue;
        const int32_t mu =
            s.view_merchant_user_dense[static_cast<size_t>(idx)];
        if (s.removed[static_cast<size_t>(mu)]) continue;
        const double w = s.view_merchant_mass[static_cast<size_t>(idx)];
        mass -= w;
        s.heap.AddTo(mu, -w);
      }
    }
  }

  if (!s.heap.empty()) s.heap.Clear();  // mass-exhausted early exit

  // Extraction in member ids (ascending ⇒ parent-ascending after the
  // caller's translation); `gone` is all-zero between calls.
  for (int64_t t = 0; t < best_prefix; ++t) {
    s.gone[static_cast<size_t>(s.removal_order[static_cast<size_t>(t)])] = 1;
  }
  for (UserId mu : s.incident_users) {
    if (!s.gone[mu]) result.users.push_back(mu);
  }
  for (MerchantId mj : s.incident_merchants) {
    if (!s.gone[static_cast<size_t>(num_users + mj)]) {
      result.merchants.push_back(mj);
    }
  }
  result.score = best_phi;
  if (keep_trace) {
    // Translate member packed ids to parent packed ids for the contract.
    result.removal_order.reserve(s.removal_order.size());
    for (int64_t id : s.removal_order) {
      result.removal_order.push_back(
          id < num_users
              ? static_cast<int64_t>(s.member_users[static_cast<size_t>(id)])
              : graph_->num_users() +
                    static_cast<int64_t>(s.member_merchants[static_cast<size_t>(
                        id - num_users)]));
    }
  }

  // Restore the arena invariants (degrees and gone prefix zero, heap
  // empty); view_alive stays with the caller.
  for (UserId mu : s.incident_users) s.user_degree[mu] = 0;
  for (MerchantId mj : s.incident_merchants) s.merchant_degree[mj] = 0;
  for (int64_t t = 0; t < best_prefix; ++t) {
    s.gone[static_cast<size_t>(s.removal_order[static_cast<size_t>(t)])] = 0;
  }
  ENSEMFDET_DCHECK(s.heap.empty());
  return result;
}

}  // namespace ensemfdet
