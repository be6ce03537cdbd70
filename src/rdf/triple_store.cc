#include "rdf/triple_store.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace sofos {

namespace {

// Index orders as field priorities (0 = s, 1 = p, 2 = o). SPO and SOP are
// served from the canonical array's subject blocks, PSO and POS from the
// predicate family's two runs, OSP from the object family.
struct FieldPerm {
  int a, b, c;
};

enum Order : int { kSPO, kSOP, kPSO, kPOS, kOSP };

constexpr FieldPerm kPerms[] = {
    {0, 1, 2},  // SPO
    {0, 2, 1},  // SOP
    {1, 0, 2},  // PSO
    {1, 2, 0},  // POS
    {2, 0, 1},  // OSP
};

/// Per family: the leading field it partitions on and its runs' orders.
struct FamilySpec {
  int field;
  int num_runs;
  Order orders[2];
};

constexpr FamilySpec kFamilySpecs[TripleStore::kNumFamilies] = {
    {1, 2, {kPSO, kPOS}},  // kPredicateFamily
    {2, 1, {kOSP, kOSP}},  // kObjectFamily
};

constexpr size_t kMaxShards = 256;
constexpr TermId kMaxTermId = std::numeric_limits<TermId>::max();

inline TermId Field(const Triple& t, int f) {
  switch (f) {
    case 0:
      return t.s;
    case 1:
      return t.p;
    default:
      return t.o;
  }
}

inline void SetField(Triple* t, int f, TermId v) {
  switch (f) {
    case 0:
      t->s = v;
      break;
    case 1:
      t->p = v;
      break;
    default:
      t->o = v;
  }
}

struct PermLess {
  FieldPerm perm;
  bool operator()(const Triple& x, const Triple& y) const {
    TermId xa = Field(x, perm.a), ya = Field(y, perm.a);
    if (xa != ya) return xa < ya;
    TermId xb = Field(x, perm.b), yb = Field(y, perm.b);
    if (xb != yb) return xb < yb;
    return Field(x, perm.c) < Field(y, perm.c);
  }
};

/// One linear pass merging `adds` into `index` while dropping `deletes`;
/// all three inputs sorted by `less`. `adds` must be disjoint from `index`
/// and `deletes` a subset of it (ApplyDelta normalizes the staged buffers
/// to these effective sets), so the output needs no deduplication.
std::vector<Triple> MergeDelta(const std::vector<Triple>& index,
                               const std::vector<Triple>& adds,
                               const std::vector<Triple>& deletes,
                               const PermLess& less) {
  std::vector<Triple> out;
  out.reserve(index.size() + adds.size() - deletes.size());
  size_t i = 0, a = 0, d = 0;
  while (i < index.size() || a < adds.size()) {
    if (a >= adds.size() || (i < index.size() && !less(adds[a], index[i]))) {
      if (d < deletes.size() && deletes[d] == index[i]) {
        ++d;  // tombstone: skip the deleted triple
        ++i;
      } else {
        out.push_back(index[i++]);
      }
    } else {
      out.push_back(adds[a++]);
    }
  }
  return out;
}

/// splitmix64 finalizer: deterministic across platforms, mixes the dense
/// low-entropy TermId space well enough that buckets stay balanced.
inline uint64_t MixId(TermId id) {
  uint64_t v = id;
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ULL;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return v;
}

}  // namespace

TripleStore::TripleStore() : dict_(std::make_shared<Dictionary>()) {}

TripleStore::TripleStore(TripleStore&& other)
    : dict_(std::move(other.dict_)),
      canonical_(std::move(other.canonical_)),
      pending_(std::move(other.pending_)),
      shard_count_(other.shard_count_),
      families_(std::move(other.families_)),
      delta_adds_(std::move(other.delta_adds_)),
      delta_deletes_(std::move(other.delta_deletes_)),
      predicate_stats_(std::move(other.predicate_stats_)),
      num_nodes_(other.num_nodes_),
      finalized_(other.finalized_),
      compact_layout_(other.compact_layout_) {
  other.Reset();
}

TripleStore& TripleStore::operator=(TripleStore&& other) {
  if (this != &other) {
    dict_ = std::move(other.dict_);
    canonical_ = std::move(other.canonical_);
    pending_ = std::move(other.pending_);
    shard_count_ = other.shard_count_;
    families_ = std::move(other.families_);
    delta_adds_ = std::move(other.delta_adds_);
    delta_deletes_ = std::move(other.delta_deletes_);
    predicate_stats_ = std::move(other.predicate_stats_);
    num_nodes_ = other.num_nodes_;
    finalized_ = other.finalized_;
    compact_layout_ = other.compact_layout_;
    other.Reset();
  }
  return *this;
}

void TripleStore::Reset() {
  dict_ = std::make_shared<Dictionary>();
  canonical_.reset();
  pending_.clear();
  shard_count_ = 1;
  for (auto& family : families_) family.clear();
  delta_adds_.clear();
  delta_deletes_.clear();
  predicate_stats_.clear();
  num_nodes_ = 0;
  finalized_ = false;
  compact_layout_ = false;
}

size_t TripleStore::ShardIndexFor(TermId id, size_t shard_count) {
  return shard_count <= 1 ? 0 : static_cast<size_t>(MixId(id) % shard_count);
}

TripleStore TripleStore::Clone() const {
  SOFOS_CHECK(finalized_, "Clone() requires a finalized store");
  SOFOS_CHECK(!HasStagedDelta(), "Clone() while a staged delta is pending");
  TripleStore copy;
  copy.dict_ = dict_;            // shared: append-only + internally locked
  copy.canonical_ = canonical_;  // COW: triples + directory, one pointer
  copy.shard_count_ = shard_count_;
  copy.families_ = families_;  // COW: 2 * shard_count pointer copies
  copy.predicate_stats_ = predicate_stats_;
  copy.num_nodes_ = num_nodes_;
  copy.finalized_ = true;
  copy.compact_layout_ = compact_layout_;
  return copy;
}

const void* TripleStore::ShardIdentity(Family family, size_t shard) const {
  SOFOS_CHECK(finalized_, "ShardIdentity() requires a finalized store");
  return families_[family][shard].get();
}

const void* TripleStore::CanonicalIdentity() const {
  SOFOS_CHECK(finalized_, "CanonicalIdentity() requires a finalized store");
  return canonical_.get();
}

void TripleStore::Add(TermId s, TermId p, TermId o) {
  assert(s != kNullTermId && p != kNullTermId && o != kNullTermId);
  SOFOS_CHECK(!HasStagedDelta(),
              "Add() while a staged delta is pending; ApplyDelta() or "
              "DiscardStagedDelta() first");
  if (finalized_) {
    // Detach into the staging buffer; the canonical array may be shared
    // with clones and must never be edited in place. (finalized_ implies
    // canonical_ is set — Finalize() establishes it and moves reset both.)
    pending_ = canonical_->triples;
    finalized_ = false;
  }
  pending_.push_back(Triple{s, p, o});
}

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  Add(dict_->Intern(s), dict_->Intern(p), dict_->Intern(o));
}

void TripleStore::ReplaceTriples(std::vector<Triple> triples) {
  SOFOS_CHECK(!HasStagedDelta(),
              "ReplaceTriples() while a staged delta is pending");
  pending_ = std::move(triples);
  finalized_ = false;
}

void TripleStore::StageAdd(TermId s, TermId p, TermId o) {
  assert(s != kNullTermId && p != kNullTermId && o != kNullTermId);
  SOFOS_CHECK(finalized_, "StageAdd() requires a finalized store");
  delta_adds_.push_back(Triple{s, p, o});
}

void TripleStore::StageDelete(TermId s, TermId p, TermId o) {
  assert(s != kNullTermId && p != kNullTermId && o != kNullTermId);
  SOFOS_CHECK(finalized_, "StageDelete() requires a finalized store");
  delta_deletes_.push_back(Triple{s, p, o});
}

void TripleStore::StageAdd(const Term& s, const Term& p, const Term& o) {
  StageAdd(dict_->Intern(s), dict_->Intern(p), dict_->Intern(o));
}

void TripleStore::StageDelete(const Term& s, const Term& p, const Term& o) {
  StageDelete(dict_->Intern(s), dict_->Intern(p), dict_->Intern(o));
}

void TripleStore::DiscardStagedDelta() {
  delta_adds_.clear();
  delta_deletes_.clear();
}

std::shared_ptr<const TripleStore::Canonical> TripleStore::MakeCanonical(
    std::vector<Triple> triples) {
  SOFOS_CHECK(triples.size() <= std::numeric_limits<uint32_t>::max(),
              "canonical array exceeds uint32 directory offsets");
  auto canonical = std::make_shared<Canonical>();
  std::vector<uint32_t>& dir = canonical->subject_offsets;
  // One pass over the SPO-sorted array: at each subject's first triple,
  // every id up to and including it starts there (ids without triples get
  // empty blocks); the sentinel entry after the largest subject closes it.
  const size_t num_ids = triples.empty() ? 0 : size_t{triples.back().s} + 2;
  dir.resize(num_ids);
  size_t next_id = 0;
  for (size_t i = 0; i < triples.size(); ++i) {
    while (next_id <= triples[i].s) dir[next_id++] = static_cast<uint32_t>(i);
  }
  while (next_id < num_ids) {
    dir[next_id++] = static_cast<uint32_t>(triples.size());
  }
  canonical->triples = std::move(triples);
  return canonical;
}

std::pair<const Triple*, const Triple*> TripleStore::SubjectBlock(
    TermId s) const {
  const std::vector<uint32_t>& dir = canonical_->subject_offsets;
  const Triple* base = canonical_->triples.data();
  if (size_t{s} + 1 >= dir.size()) return {base, base};
  return {base + dir[s], base + dir[s + 1]};
}

std::vector<std::vector<Triple>> TripleStore::PartitionByField(
    const std::vector<Triple>& triples, int field) const {
  std::vector<std::vector<Triple>> buckets(shard_count_);
  if (shard_count_ == 1) {
    buckets[0] = triples;
    return buckets;
  }
  std::vector<size_t> sizes(shard_count_, 0);
  for (const Triple& t : triples) {
    ++sizes[ShardIndexFor(Field(t, field), shard_count_)];
  }
  for (size_t k = 0; k < shard_count_; ++k) buckets[k].reserve(sizes[k]);
  for (const Triple& t : triples) {
    buckets[ShardIndexFor(Field(t, field), shard_count_)].push_back(t);
  }
  return buckets;
}

void TripleStore::ComputeShardStats(Shard* shard) {
  // Per-predicate statistics from the shard's PSO and POS runs: triples per
  // predicate, distinct subjects per predicate (runs of s within a
  // predicate block of PSO), distinct objects per predicate (runs of o
  // within POS). A predicate's triples all hash to one shard, so these are
  // complete per-predicate figures.
  shard->stats.clear();
  const auto& pso = shard->runs[0];
  for (size_t i = 0; i < pso.size();) {
    TermId pred = pso[i].p;
    PredicateStats& st = shard->stats[pred];
    TermId last_s = kNullTermId;
    while (i < pso.size() && pso[i].p == pred) {
      ++st.triples;
      if (pso[i].s != last_s) {
        ++st.distinct_subjects;
        last_s = pso[i].s;
      }
      ++i;
    }
  }
  const auto& pos = shard->runs[1];
  for (size_t i = 0; i < pos.size();) {
    TermId pred = pos[i].p;
    PredicateStats& st = shard->stats[pred];
    TermId last_o = kNullTermId;
    while (i < pos.size() && pos[i].p == pred) {
      if (pos[i].o != last_o) {
        ++st.distinct_objects;
        last_o = pos[i].o;
      }
      ++i;
    }
  }
}

void TripleStore::CompressShard(Shard* out, const std::vector<Triple>& bucket) {
  // `bucket` arrives OSP-sorted, so the object is non-decreasing: one pass
  // emits each distinct object once and packs (s, p) per triple. CSR
  // offsets are uint32 — fine for any per-bucket size this store can hold
  // (the canonical array itself is capped at uint32 offsets).
  out->compact = true;
  out->edges.reserve(bucket.size());
  for (const Triple& t : bucket) {
    if (out->node_ids.empty() || out->node_ids.back() != t.o) {
      out->node_ids.push_back(t.o);
      out->node_offsets.push_back(static_cast<uint32_t>(out->edges.size()));
    }
    out->edges.push_back(Shard::Edge{t.s, t.p});
  }
  out->node_offsets.push_back(static_cast<uint32_t>(out->edges.size()));
}

std::vector<Triple> TripleStore::DecompressShard(const Shard& shard) {
  std::vector<Triple> out;
  out.reserve(shard.edges.size());
  for (size_t n = 0; n < shard.node_ids.size(); ++n) {
    for (uint32_t i = shard.node_offsets[n]; i < shard.node_offsets[n + 1];
         ++i) {
      out.push_back(Triple{shard.edges[i][0], shard.edges[i][1],
                           shard.node_ids[n]});
    }
  }
  return out;
}

std::pair<const TripleStore::Shard::Edge*, const TripleStore::Shard::Edge*>
TripleStore::NodeEdges(const Shard& shard, TermId o) {
  auto it = std::lower_bound(shard.node_ids.begin(), shard.node_ids.end(), o);
  if (it == shard.node_ids.end() || *it != o) return {nullptr, nullptr};
  const size_t n = static_cast<size_t>(it - shard.node_ids.begin());
  return {shard.edges.data() + shard.node_offsets[n],
          shard.edges.data() + shard.node_offsets[n + 1]};
}

void TripleStore::RefreshStats() {
  predicate_stats_.clear();
  for (const auto& shard : families_[kPredicateFamily]) {
    for (const auto& [pred, stats] : shard->stats) {
      predicate_stats_.emplace(pred, stats);
    }
  }
  // Nodes = subjects (non-empty directory blocks) + objects without a
  // block. A compact object shard lists its distinct objects directly; a
  // sorted OSP run yields them as run heads.
  const std::vector<uint32_t>& dir = canonical_->subject_offsets;
  auto has_block = [&dir](TermId id) {
    return size_t{id} + 1 < dir.size() && dir[id] != dir[id + 1];
  };
  uint64_t nodes = 0;
  for (size_t id = 0; id + 1 < dir.size(); ++id) {
    if (dir[id] != dir[id + 1]) ++nodes;
  }
  for (const auto& shard : families_[kObjectFamily]) {
    if (shard->compact) {
      for (TermId o : shard->node_ids) nodes += has_block(o) ? 0 : 1;
      continue;
    }
    TermId prev = kNullTermId;
    for (const Triple& t : shard->runs[0]) {
      if (t.o == prev) continue;
      prev = t.o;
      nodes += has_block(t.o) ? 0 : 1;
    }
  }
  num_nodes_ = nodes;
}

void TripleStore::BuildShards(ThreadPool* pool) {
  const std::vector<Triple>& all = canonical_->triples;

  // Serial partition pass per family (linear), then every (family, bucket)
  // sorts its runs independently on the pool. Comparators are total orders
  // over deduplicated triples, so the result is schedule-invariant.
  std::array<std::vector<std::vector<Triple>>, kNumFamilies> partitioned;
  for (int f = 0; f < kNumFamilies; ++f) {
    partitioned[f] = PartitionByField(all, kFamilySpecs[f].field);
  }

  std::array<std::vector<std::shared_ptr<const Shard>>, kNumFamilies> fresh;
  for (int f = 0; f < kNumFamilies; ++f) {
    fresh[f].resize(shard_count_);
  }
  ParallelForEach(
      pool, static_cast<size_t>(kNumFamilies) * shard_count_, [&](size_t i) {
        const int f = static_cast<int>(i / shard_count_);
        const size_t k = i % shard_count_;
        const FamilySpec& spec = kFamilySpecs[f];
        auto shard = std::make_shared<Shard>();
        std::vector<Triple> bucket = std::move(partitioned[f][k]);
        if (FamilyCompact(f)) {
          std::sort(bucket.begin(), bucket.end(), PermLess{kPerms[kOSP]});
          CompressShard(shard.get(), bucket);
        } else {
          for (int run = 1; run < spec.num_runs; ++run) {
            shard->runs[run] = bucket;
          }
          shard->runs[0] = std::move(bucket);
          for (int run = 0; run < spec.num_runs; ++run) {
            std::sort(shard->runs[run].begin(), shard->runs[run].end(),
                      PermLess{kPerms[spec.orders[run]]});
          }
        }
        if (f == kPredicateFamily) ComputeShardStats(shard.get());
        fresh[f][k] = std::move(shard);
      });
  for (int f = 0; f < kNumFamilies; ++f) families_[f] = std::move(fresh[f]);
  RefreshStats();
}

void TripleStore::SetShardCount(size_t count, ThreadPool* pool) {
  SOFOS_CHECK(!HasStagedDelta(),
              "SetShardCount() while a staged delta is pending");
  count = std::max<size_t>(1, std::min(count, kMaxShards));
  if (count == shard_count_) return;
  shard_count_ = count;
  if (finalized_) BuildShards(pool);
}

void TripleStore::SetCompactLayout(bool compact, ThreadPool* pool) {
  SOFOS_CHECK(!HasStagedDelta(),
              "SetCompactLayout() while a staged delta is pending");
  if (compact == compact_layout_) return;
  compact_layout_ = compact;
  if (finalized_) BuildShards(pool);
}

DeltaApplyResult TripleStore::ApplyDelta(ThreadPool* pool) {
  SOFOS_CHECK(finalized_, "ApplyDelta() requires a finalized store");
  WallTimer timer;
  DeltaApplyResult result;

  // Normalize the staged buffers against the current graph so the merges
  // are pure: effective adds are absent from G, effective deletes are
  // present in G and not re-added ((G \ D) ∪ A keeps a triple staged on
  // both sides, so it must not be tombstoned).
  std::sort(delta_adds_.begin(), delta_adds_.end());
  delta_adds_.erase(std::unique(delta_adds_.begin(), delta_adds_.end()),
                    delta_adds_.end());
  std::sort(delta_deletes_.begin(), delta_deletes_.end());
  delta_deletes_.erase(
      std::unique(delta_deletes_.begin(), delta_deletes_.end()),
      delta_deletes_.end());

  std::vector<Triple> adds, deletes;
  adds.reserve(delta_adds_.size());
  deletes.reserve(delta_deletes_.size());
  for (const Triple& t : delta_adds_) {
    if (!Contains(t.s, t.p, t.o)) adds.push_back(t);
  }
  for (const Triple& t : delta_deletes_) {
    if (Contains(t.s, t.p, t.o) &&
        !std::binary_search(delta_adds_.begin(), delta_adds_.end(), t)) {
      deletes.push_back(t);
    }
  }
  DiscardStagedDelta();
  result.adds_applied = adds.size();
  result.deletes_applied = deletes.size();

  if (adds.empty() && deletes.empty()) {
    result.merge_micros = timer.ElapsedMicros();
    return result;
  }

  // Partition the (SPO-sorted) effective delta per family; only buckets
  // with a non-empty slice are rebuilt, everything else keeps sharing its
  // published Shard across the mutation (the COW aliasing contract).
  std::array<std::vector<std::vector<Triple>>, kNumFamilies> f_adds, f_deletes;
  for (int f = 0; f < kNumFamilies; ++f) {
    f_adds[f] = PartitionByField(adds, kFamilySpecs[f].field);
    f_deletes[f] = PartitionByField(deletes, kFamilySpecs[f].field);
  }
  struct ShardTask {
    int family;
    size_t bucket;
  };
  std::vector<ShardTask> tasks;
  for (int f = 0; f < kNumFamilies; ++f) {
    for (size_t k = 0; k < shard_count_; ++k) {
      if (f_adds[f][k].empty() && f_deletes[f][k].empty()) continue;
      tasks.push_back(ShardTask{f, k});
    }
  }
  result.shards_rebuilt = tasks.size();

  // Task list: one canonical merge (plus its directory) and one merge per
  // touched shard, all independent; each shard task sorts its own small
  // delta slice into its run orders, then merges linearly.
  std::shared_ptr<const Canonical> fresh_canonical;
  std::vector<std::shared_ptr<const Shard>> replacements(tasks.size());
  ParallelForEach(pool, tasks.size() + 1, [&](size_t i) {
    if (i == tasks.size()) {
      fresh_canonical = MakeCanonical(MergeDelta(
          canonical_->triples, adds, deletes, PermLess{kPerms[kSPO]}));
      return;
    }
    const ShardTask& task = tasks[i];
    const FamilySpec& spec = kFamilySpecs[task.family];
    const Shard& old = *families_[task.family][task.bucket];
    // Each (family, bucket) slice belongs to exactly this task; its last
    // run steals the slice instead of copying it.
    std::vector<Triple>& slice_adds = f_adds[task.family][task.bucket];
    std::vector<Triple>& slice_deletes = f_deletes[task.family][task.bucket];
    auto fresh = std::make_shared<Shard>();
    const int num_runs = old.compact ? 1 : spec.num_runs;
    for (int run = 0; run < num_runs; ++run) {
      const bool last = run + 1 == num_runs;
      PermLess less{kPerms[spec.orders[run]]};
      std::vector<Triple> order_adds =
          last ? std::move(slice_adds) : slice_adds;
      std::vector<Triple> order_deletes =
          last ? std::move(slice_deletes) : slice_deletes;
      std::sort(order_adds.begin(), order_adds.end(), less);
      std::sort(order_deletes.begin(), order_deletes.end(), less);
      if (old.compact) {
        // Compact object buckets decode, tombstone-merge, re-encode.
        CompressShard(fresh.get(), MergeDelta(DecompressShard(old), order_adds,
                                              order_deletes, less));
      } else {
        fresh->runs[run] =
            MergeDelta(old.runs[run], order_adds, order_deletes, less);
      }
    }
    if (task.family == kPredicateFamily) ComputeShardStats(fresh.get());
    replacements[i] = std::move(fresh);
  });
  canonical_ = std::move(fresh_canonical);
  for (size_t i = 0; i < tasks.size(); ++i) {
    families_[tasks[i].family][tasks[i].bucket] = std::move(replacements[i]);
  }
  RefreshStats();

  result.merge_micros = timer.ElapsedMicros();
  return result;
}

void TripleStore::Finalize(ThreadPool* pool) {
  SOFOS_CHECK(!HasStagedDelta(),
              "Finalize() while a staged delta is pending; ApplyDelta() or "
              "DiscardStagedDelta() first");
  if (finalized_) return;

  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  canonical_ = MakeCanonical(std::move(pending_));
  pending_ = std::vector<Triple>();
  BuildShards(pool);
  finalized_ = true;
}

namespace {

/// The index whose sort order puts the bound components first. Shared by
/// Scan() and ScanFieldOrder() so the two can never disagree — the hash
/// join's bucket ordering relies on replicating exactly this choice.
Order PickScanOrder(bool s, bool p, bool o) {
  if (s) {
    if (p) return kSPO;  // covers s, sp, spo
    if (o) return kSOP;
    return kSPO;
  }
  if (p) return o ? kPOS : kPSO;
  if (o) return kOSP;
  return kSPO;  // full scan
}

/// The sub-range of [begin, end) — sorted by `order` — whose bound fields
/// (kNullTermId = unbound) match; unbound fields span (0, max).
std::pair<const Triple*, const Triple*> BoundRange(const Triple* begin,
                                                   const Triple* end,
                                                   Order order, TermId s,
                                                   TermId p, TermId o) {
  const FieldPerm& perm = kPerms[order];
  Triple lo{s, p, o}, hi{s, p, o};
  for (int f : {perm.a, perm.b, perm.c}) {
    if (Field(lo, f) == kNullTermId) {
      SetField(&lo, f, 0);
      SetField(&hi, f, kMaxTermId);
    }
  }
  PermLess less{perm};
  const Triple* first = std::lower_bound(begin, end, lo, less);
  return {first, std::upper_bound(first, end, hi, less)};
}

}  // namespace

std::array<int, 3> TripleStore::ScanFieldOrder(bool s_bound, bool p_bound,
                                               bool o_bound) {
  const FieldPerm& perm = kPerms[PickScanOrder(s_bound, p_bound, o_bound)];
  return {perm.a, perm.b, perm.c};
}

TripleStore::ScanRange TripleStore::Scan(TermId s, TermId p, TermId o) const {
  assert(finalized_ && "Scan() requires a finalized store");
  // Release-mode backstop for the misuse the assert catches in debug: an
  // unfinalized store has no canonical array (and possibly no shards) —
  // answer empty instead of dereferencing null.
  if (canonical_ == nullptr) return ScanRange();

  const Order order =
      PickScanOrder(s != kNullTermId, p != kNullTermId, o != kNullTermId);
  // Materializes a filtered or decoded slice; the buffer travels with the
  // range (backing). Both pointers are read before the move: argument
  // evaluation order is unspecified.
  auto owning = [](std::shared_ptr<std::vector<Triple>> out) {
    if (out->empty()) return ScanRange();
    const Triple* data = out->data();
    const Triple* data_end = data + out->size();
    return ScanRange(data, data_end, std::move(out));
  };
  switch (order) {
    case kSPO: {
      if (s == kNullTermId) {
        // Fully unbound: the canonical array is the one globally sorted
        // view (shard runs are only locally sorted).
        const std::vector<Triple>& all = canonical_->triples;
        return ScanRange(all.data(), all.data() + all.size());
      }
      // The subject's block is (p, o)-sorted, i.e. in Triple's own order:
      // narrow it to the bound prefix, zero-copy in both layouts.
      auto [begin, end] = SubjectBlock(s);
      if (p != kNullTermId) {
        const Triple lo{s, p, o == kNullTermId ? 0 : o};
        const Triple hi{s, p, o == kNullTermId ? kMaxTermId : o};
        begin = std::lower_bound(begin, end, lo);
        end = std::upper_bound(begin, end, hi);
      }
      return ScanRange(begin, end);
    }
    case kSOP: {
      // s and o bound: p ascends within the block's o matches.
      const auto [begin, end] = SubjectBlock(s);
      auto out = std::make_shared<std::vector<Triple>>();
      for (const Triple* t = begin; t != end; ++t) {
        if (t->o == o) out->push_back(*t);
      }
      return owning(std::move(out));
    }
    case kOSP: {
      const Shard& shard =
          *families_[kObjectFamily][ShardIndexFor(o, shard_count_)];
      if (!shard.compact) {
        const std::vector<Triple>& run = shard.runs[0];
        const auto [begin, end] = BoundRange(
            run.data(), run.data() + run.size(), kOSP, s, p, o);
        return ScanRange(begin, end);
      }
      const auto [ebeg, eend] = NodeEdges(shard, o);
      auto out = std::make_shared<std::vector<Triple>>();
      out->reserve(static_cast<size_t>(eend - ebeg));
      for (const Shard::Edge* e = ebeg; e != eend; ++e) {
        out->push_back(Triple{(*e)[0], (*e)[1], o});
      }
      return owning(std::move(out));
    }
    default: {  // kPSO / kPOS
      const Shard& shard =
          *families_[kPredicateFamily][ShardIndexFor(p, shard_count_)];
      const std::vector<Triple>& run = shard.runs[order == kPOS ? 1 : 0];
      const auto [begin, end] =
          BoundRange(run.data(), run.data() + run.size(), order, s, p, o);
      return ScanRange(begin, end);
    }
  }
}

uint64_t TripleStore::Count(TermId s, TermId p, TermId o) const {
  assert(finalized_ && "Count() requires a finalized store");
  if (canonical_ == nullptr) return 0;
  if (s != kNullTermId && p == kNullTermId && o != kNullTermId) {
    const auto [begin, end] = SubjectBlock(s);  // SOP: count, don't copy
    return static_cast<uint64_t>(std::count_if(
        begin, end, [o](const Triple& t) { return t.o == o; }));
  }
  if (s == kNullTermId && p == kNullTermId && o != kNullTermId) {
    const Shard& shard =
        *families_[kObjectFamily][ShardIndexFor(o, shard_count_)];
    if (shard.compact) {
      const auto [ebeg, eend] = NodeEdges(shard, o);
      return static_cast<uint64_t>(eend - ebeg);
    }
  }
  // Every other shape is a zero-copy range.
  return Scan(s, p, o).size();
}

const PredicateStats* TripleStore::StatsFor(TermId predicate) const {
  auto it = predicate_stats_.find(predicate);
  if (it == predicate_stats_.end()) return nullptr;
  return &it->second;
}

double TripleStore::AvgSubjectFanout(TermId predicate) const {
  const PredicateStats* st = StatsFor(predicate);
  if (st == nullptr || st->distinct_subjects == 0) return 0.0;
  return static_cast<double>(st->triples) /
         static_cast<double>(st->distinct_subjects);
}

double TripleStore::AvgObjectFanout(TermId predicate) const {
  const PredicateStats* st = StatsFor(predicate);
  if (st == nullptr || st->distinct_objects == 0) return 0.0;
  return static_cast<double>(st->triples) /
         static_cast<double>(st->distinct_objects);
}

uint64_t TripleStore::MemoryBytes() const {
  uint64_t bytes = dict_->MemoryBytes();
  if (canonical_ != nullptr) {
    bytes += canonical_->triples.capacity() * sizeof(Triple) +
             canonical_->subject_offsets.capacity() * sizeof(uint32_t);
  }
  bytes += pending_.capacity() * sizeof(Triple);
  bytes += (delta_adds_.capacity() + delta_deletes_.capacity()) * sizeof(Triple);
  for (const auto& family : families_) {
    for (const auto& shard : family) {
      if (shard != nullptr) bytes += shard->MemoryBytes();
    }
  }
  return bytes;
}

}  // namespace sofos
