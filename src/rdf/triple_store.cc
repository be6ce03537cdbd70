#include "rdf/triple_store.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace sofos {

namespace {

// Field extraction per order: order -> (first, second, third) selectors.
// Order indexes are family * 2 + run (see TripleStore::Family), i.e.
// 0=SPO, 1=SOP, 2=PSO, 3=POS, 4=OSP, 5=OPS.
struct FieldPerm {
  int a, b, c;  // 0 = s, 1 = p, 2 = o
};

constexpr FieldPerm kPerms[] = {
    {0, 1, 2},  // SPO
    {0, 2, 1},  // SOP
    {1, 0, 2},  // PSO
    {1, 2, 0},  // POS
    {2, 0, 1},  // OSP
    {2, 1, 0},  // OPS
};

constexpr int kSPO = 0;

/// The leading field each family partitions on (0 = s, 1 = p, 2 = o).
constexpr int kFamilyField[TripleStore::kNumFamilies] = {0, 1, 2};

constexpr size_t kMaxShards = 256;

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
      bucket_nodes_(std::move(other.bucket_nodes_)),
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
    bucket_nodes_ = std::move(other.bucket_nodes_);
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
  bucket_nodes_.clear();
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
  copy.canonical_ = canonical_;  // COW: replaced wholesale on mutation
  copy.shard_count_ = shard_count_;
  copy.families_ = families_;  // COW: 3 * shard_count pointer copies
  copy.bucket_nodes_ = bucket_nodes_;
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
    pending_ = *canonical_;
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

void TripleStore::CompressShard(Shard* out, int family,
                                const std::vector<Triple>& bucket) {
  // `bucket` arrives sorted by the family's primary order, so the leading
  // field is non-decreasing: one pass emits each distinct lead once and
  // packs the two minor fields per triple. CSR offsets are uint32 — fine
  // for any per-bucket size this store can hold (TermIds are uint32 and
  // shards split the graph further).
  SOFOS_CHECK(bucket.size() <= std::numeric_limits<uint32_t>::max(),
              "compact shard bucket exceeds uint32 edge offsets");
  const FieldPerm& perm = kPerms[family * 2];
  out->compact = true;
  out->edges.reserve(bucket.size());
  for (const Triple& t : bucket) {
    TermId lead = Field(t, perm.a);
    if (out->node_ids.empty() || out->node_ids.back() != lead) {
      out->node_ids.push_back(lead);
      out->node_offsets.push_back(static_cast<uint32_t>(out->edges.size()));
    }
    out->edges.push_back(Shard::Edge{Field(t, perm.b), Field(t, perm.c)});
  }
  out->node_offsets.push_back(static_cast<uint32_t>(out->edges.size()));
}

std::vector<Triple> TripleStore::DecompressShard(const Shard& shard,
                                                 int family) {
  const FieldPerm& perm = kPerms[family * 2];
  std::vector<Triple> out;
  out.reserve(shard.edges.size());
  for (size_t n = 0; n < shard.node_ids.size(); ++n) {
    for (uint32_t i = shard.node_offsets[n]; i < shard.node_offsets[n + 1];
         ++i) {
      Triple t;
      SetField(&t, perm.a, shard.node_ids[n]);
      SetField(&t, perm.b, shard.edges[i][0]);
      SetField(&t, perm.c, shard.edges[i][1]);
      out.push_back(t);
    }
  }
  return out;
}

void TripleStore::ComputeShardBloom(Shard* shard) {
  constexpr uint32_t kBloomBits = Shard::kBloomWords * 64;
  shard->bloom.fill(0);
  auto add = [shard](TermId p) {
    const uint64_t h = MixId(p);
    const uint32_t b1 = static_cast<uint32_t>(h) & (kBloomBits - 1);
    const uint32_t b2 = static_cast<uint32_t>(h >> 32) & (kBloomBits - 1);
    shard->bloom[b1 >> 6] |= 1ULL << (b1 & 63);
    shard->bloom[b2 >> 6] |= 1ULL << (b2 & 63);
  };
  if (shard->compact) {
    // Subject-family edges store (p, o).
    for (const Shard::Edge& e : shard->edges) add(e[0]);
  } else {
    // Subject-family runs[0] is SPO.
    for (const Triple& t : shard->runs[0]) add(t.p);
  }
}

bool TripleStore::BloomMayContain(const Shard& shard, TermId predicate) {
  constexpr uint32_t kBloomBits = Shard::kBloomWords * 64;
  const uint64_t h = MixId(predicate);
  const uint32_t b1 = static_cast<uint32_t>(h) & (kBloomBits - 1);
  const uint32_t b2 = static_cast<uint32_t>(h >> 32) & (kBloomBits - 1);
  return (shard.bloom[b1 >> 6] & (1ULL << (b1 & 63))) != 0 &&
         (shard.bloom[b2 >> 6] & (1ULL << (b2 & 63))) != 0;
}

uint64_t TripleStore::ComputeBucketNodes(size_t k) const {
  // Distinct ids appearing as subject or object *within this bucket*:
  // subjects are the distinct leads of the bucket's SPO index, objects the
  // distinct leads of the bucket's OSP index; merge-count the two ascending
  // sequences. A compact shard lists its distinct leads directly
  // (node_ids); a sorted-run shard yields them as run-heads of its primary
  // run, which the prev-dedup below collapses. The subject and object
  // families use the same hash, so a term's subject occurrences and object
  // occurrences land in the same bucket index and the per-bucket counts
  // sum to the global node count without double counting.
  const Shard& subj = *families_[kSubjectFamily][k];
  const Shard& obj = *families_[kObjectFamily][k];
  auto size_of = [](const Shard& sh) {
    return sh.compact ? sh.node_ids.size() : sh.runs[0].size();
  };
  auto lead_at = [](const Shard& sh, int field, size_t idx) {
    return sh.compact ? sh.node_ids[idx] : Field(sh.runs[0][idx], field);
  };
  const size_t nsub = size_of(subj), nobj = size_of(obj);
  uint64_t nodes = 0;
  size_t i = 0, j = 0;
  TermId prev = kNullTermId;
  bool have_prev = false;
  while (i < nsub || j < nobj) {
    TermId next;
    if (j >= nobj ||
        (i < nsub && lead_at(subj, 0, i) <= lead_at(obj, 2, j))) {
      next = lead_at(subj, 0, i);
      ++i;
    } else {
      next = lead_at(obj, 2, j);
      ++j;
    }
    if (!have_prev || next != prev) {
      ++nodes;
      prev = next;
      have_prev = true;
    }
  }
  return nodes;
}

void TripleStore::RefreshStats(const std::vector<bool>* dirty_buckets) {
  predicate_stats_.clear();
  for (const auto& shard : families_[kPredicateFamily]) {
    for (const auto& [pred, stats] : shard->stats) {
      predicate_stats_.emplace(pred, stats);
    }
  }
  if (bucket_nodes_.size() != shard_count_) {
    bucket_nodes_.assign(shard_count_, 0);
    dirty_buckets = nullptr;  // shard count changed: everything is dirty
  }
  for (size_t k = 0; k < shard_count_; ++k) {
    if (dirty_buckets == nullptr || (*dirty_buckets)[k]) {
      bucket_nodes_[k] = ComputeBucketNodes(k);
    }
  }
  num_nodes_ = 0;
  for (uint64_t n : bucket_nodes_) num_nodes_ += n;
}

void TripleStore::BuildShards(ThreadPool* pool) {
  const std::vector<Triple>& all = *canonical_;

  // Serial partition pass per family (linear), then every (family, bucket)
  // sorts its two runs independently on the pool. Comparators are total
  // orders over deduplicated triples, so the result is schedule-invariant.
  std::array<std::vector<std::vector<Triple>>, kNumFamilies> partitioned;
  for (int f = 0; f < kNumFamilies; ++f) {
    partitioned[f] = PartitionByField(all, kFamilyField[f]);
  }

  std::array<std::vector<std::shared_ptr<const Shard>>, kNumFamilies> fresh;
  for (int f = 0; f < kNumFamilies; ++f) {
    fresh[f].resize(shard_count_);
  }
  ParallelForEach(
      pool, static_cast<size_t>(kNumFamilies) * shard_count_, [&](size_t i) {
        const int f = static_cast<int>(i / shard_count_);
        const size_t k = i % shard_count_;
        auto shard = std::make_shared<Shard>();
        std::vector<Triple> bucket = std::move(partitioned[f][k]);
        if (FamilyCompact(f)) {
          // The partition preserves canonical SPO order, so the subject
          // family's bucket is already in its primary order; the object
          // family needs its OSP sort first.
          if (f != kSubjectFamily) {
            std::sort(bucket.begin(), bucket.end(), PermLess{kPerms[f * 2]});
          }
          CompressShard(shard.get(), f, bucket);
        } else {
          shard->runs[0] = std::move(bucket);
          shard->runs[1] = shard->runs[0];
          // Same SPO-order argument as above for the subject family.
          if (f != kSubjectFamily) {
            std::sort(shard->runs[0].begin(), shard->runs[0].end(),
                      PermLess{kPerms[f * 2]});
          }
          std::sort(shard->runs[1].begin(), shard->runs[1].end(),
                    PermLess{kPerms[f * 2 + 1]});
        }
        if (f == kPredicateFamily) ComputeShardStats(shard.get());
        if (f == kSubjectFamily) ComputeShardBloom(shard.get());
        fresh[f][k] = std::move(shard);
      });
  for (int f = 0; f < kNumFamilies; ++f) families_[f] = std::move(fresh[f]);
  RefreshStats(nullptr);
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

  const std::vector<Triple>& current = *canonical_;
  std::vector<Triple> adds, deletes;
  adds.reserve(delta_adds_.size());
  deletes.reserve(delta_deletes_.size());
  for (const Triple& t : delta_adds_) {
    if (!std::binary_search(current.begin(), current.end(), t)) {
      adds.push_back(t);
    }
  }
  for (const Triple& t : delta_deletes_) {
    if (std::binary_search(current.begin(), current.end(), t) &&
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
    f_adds[f] = PartitionByField(adds, kFamilyField[f]);
    f_deletes[f] = PartitionByField(deletes, kFamilyField[f]);
  }
  struct ShardTask {
    int family;
    size_t bucket;
  };
  std::vector<ShardTask> tasks;
  std::vector<bool> dirty_nodes(shard_count_, false);
  for (int f = 0; f < kNumFamilies; ++f) {
    for (size_t k = 0; k < shard_count_; ++k) {
      if (f_adds[f][k].empty() && f_deletes[f][k].empty()) continue;
      tasks.push_back(ShardTask{f, k});
      if (f != kPredicateFamily) dirty_nodes[k] = true;
    }
  }
  result.shards_rebuilt = tasks.size();

  // Task list: one canonical-array merge plus one merge per touched shard,
  // all independent; each shard task sorts its own small delta slice into
  // its two run orders, then merges linearly.
  auto fresh_canonical = std::make_shared<std::vector<Triple>>();
  std::vector<std::shared_ptr<const Shard>> replacements(tasks.size());
  ParallelForEach(pool, tasks.size() + 1, [&](size_t i) {
    if (i == tasks.size()) {
      *fresh_canonical =
          MergeDelta(*canonical_, adds, deletes, PermLess{kPerms[kSPO]});
      return;
    }
    const ShardTask& task = tasks[i];
    const Shard& old = *families_[task.family][task.bucket];
    auto fresh = std::make_shared<Shard>();
    if (old.compact) {
      // Compact buckets merge in the primary order only: decode the CSR
      // arrays back to triples, tombstone-merge, re-encode. The slices are
      // this task's alone, so steal them.
      const int order = task.family * 2;
      PermLess less{kPerms[order]};
      std::vector<Triple> order_adds =
          std::move(f_adds[task.family][task.bucket]);
      std::vector<Triple> order_deletes =
          std::move(f_deletes[task.family][task.bucket]);
      if (order != kSPO) {
        std::sort(order_adds.begin(), order_adds.end(), less);
        std::sort(order_deletes.begin(), order_deletes.end(), less);
      }
      CompressShard(fresh.get(), task.family,
                    MergeDelta(DecompressShard(old, task.family), order_adds,
                               order_deletes, less));
    } else {
      for (int run = 0; run < 2; ++run) {
        const int order = task.family * 2 + run;
        PermLess less{kPerms[order]};
        // Each (family, bucket) slice belongs to exactly this task; the
        // second run is its last use, so steal instead of copying.
        std::vector<Triple> order_adds =
            run == 1 ? std::move(f_adds[task.family][task.bucket])
                     : f_adds[task.family][task.bucket];
        std::vector<Triple> order_deletes =
            run == 1 ? std::move(f_deletes[task.family][task.bucket])
                     : f_deletes[task.family][task.bucket];
        if (order != kSPO) {
          std::sort(order_adds.begin(), order_adds.end(), less);
          std::sort(order_deletes.begin(), order_deletes.end(), less);
        }
        fresh->runs[run] = MergeDelta(old.runs[run], order_adds,
                                      order_deletes, less);
      }
    }
    if (task.family == kPredicateFamily) ComputeShardStats(fresh.get());
    if (task.family == kSubjectFamily) ComputeShardBloom(fresh.get());
    replacements[i] = std::move(fresh);
  });
  canonical_ = std::move(fresh_canonical);
  for (size_t i = 0; i < tasks.size(); ++i) {
    families_[tasks[i].family][tasks[i].bucket] = std::move(replacements[i]);
  }
  RefreshStats(&dirty_nodes);

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
  canonical_ =
      std::make_shared<const std::vector<Triple>>(std::move(pending_));
  pending_ = std::vector<Triple>();
  BuildShards(pool);
  finalized_ = true;
}

namespace {

/// The index whose sort order puts the bound components first. Shared by
/// Scan() and ScanFieldOrder() so the two can never disagree — the hash
/// join's bucket ordering relies on replicating exactly this choice.
int PickScanOrder(bool s, bool p, bool o) {
  if (s) {
    if (p) return 0;  // kSPO: covers s, sp, spo
    if (o) return 1;  // kSOP
    return 0;         // kSPO
  }
  if (p) return o ? 3 : 2;  // kPOS : kPSO
  if (o) return 4;          // kOSP
  return 0;                 // kSPO: full scan
}

}  // namespace

std::array<int, 3> TripleStore::ScanFieldOrder(bool s_bound, bool p_bound,
                                               bool o_bound) {
  const FieldPerm& perm = kPerms[PickScanOrder(s_bound, p_bound, o_bound)];
  return {perm.a, perm.b, perm.c};
}

TripleStore::ScanRange TripleStore::Scan(TermId s, TermId p, TermId o,
                                         bool* bloom_skipped) const {
  if (bloom_skipped != nullptr) *bloom_skipped = false;
  assert(finalized_ && "Scan() requires a finalized store");
  // Release-mode backstop for the misuse the assert catches in debug: an
  // unfinalized store has no canonical array (and possibly no shards) —
  // answer empty instead of dereferencing null.
  if (canonical_ == nullptr) return ScanRange();

  if (s == kNullTermId && p == kNullTermId && o == kNullTermId) {
    // Fully unbound: the canonical array is the one globally SPO-sorted
    // view (shard runs are only locally sorted).
    const auto& all = *canonical_;
    return ScanRange(all.data(), all.data() + all.size());
  }
  int order =
      PickScanOrder(s != kNullTermId, p != kNullTermId, o != kNullTermId);

  // Every non-full pattern binds the chosen order's leading field, so the
  // scan resolves inside exactly one hash bucket of that order's family.
  const int family = order / 2;
  const TermId lead = family == kSubjectFamily
                          ? s
                          : family == kPredicateFamily ? p : o;
  const Shard& shard =
      *families_[family][ShardIndexFor(lead, shard_count_)];
  // Subject-family scans are the only picked orders with a bound,
  // non-leading predicate (SPO with p bound); the shard's predicate bloom
  // proves many of those empty without touching the index. False positives
  // just fall through to the normal search — results are unchanged.
  if (family == kSubjectFamily && p != kNullTermId &&
      !BloomMayContain(shard, p)) {
    if (bloom_skipped != nullptr) *bloom_skipped = true;
    return ScanRange();
  }
  if (shard.compact) return CompactScan(shard, order, s, p, o);
  const std::vector<Triple>& index = shard.runs[order % 2];

  const FieldPerm& perm = kPerms[order];
  constexpr TermId kMax = std::numeric_limits<TermId>::max();
  Triple lo{s, p, o}, hi{s, p, o};
  // Unbound fields become (0, max) so the bound prefix delimits the range.
  if (Field(lo, perm.a) == kNullTermId) {
    SetField(&lo, perm.a, 0);
    SetField(&hi, perm.a, kMax);
  }
  if (Field(lo, perm.b) == kNullTermId) {
    SetField(&lo, perm.b, 0);
    SetField(&hi, perm.b, kMax);
  }
  if (Field(lo, perm.c) == kNullTermId) {
    SetField(&lo, perm.c, 0);
    SetField(&hi, perm.c, kMax);
  }

  PermLess less{perm};
  auto begin = std::lower_bound(index.begin(), index.end(), lo, less);
  auto end = std::upper_bound(begin, index.end(), hi, less);
  return ScanRange(index.data() + (begin - index.begin()),
                   index.data() + (end - index.begin()));
}

TripleStore::ScanRange TripleStore::CompactScan(const Shard& shard, int order,
                                                TermId s, TermId p,
                                                TermId o) const {
  const int family = order / 2;
  const TermId lead = family == kSubjectFamily ? s : o;
  auto it =
      std::lower_bound(shard.node_ids.begin(), shard.node_ids.end(), lead);
  if (it == shard.node_ids.end() || *it != lead) return ScanRange();
  const size_t n = static_cast<size_t>(it - shard.node_ids.begin());
  const Shard::Edge* ebeg = shard.edges.data() + shard.node_offsets[n];
  const Shard::Edge* eend = shard.edges.data() + shard.node_offsets[n + 1];

  // Materialize the node's matching slice in exactly the order the sorted
  // run would have held it; the buffer travels with the range (backing).
  auto out = std::make_shared<std::vector<Triple>>();
  constexpr TermId kMax = std::numeric_limits<TermId>::max();
  switch (order) {
    case 0: {  // SPO: the slice is (p, o)-sorted; narrow by p (and o).
      if (p != kNullTermId) {
        ebeg = std::lower_bound(
            ebeg, eend, Shard::Edge{p, o != kNullTermId ? o : 0});
        eend = std::upper_bound(
            ebeg, eend, Shard::Edge{p, o != kNullTermId ? o : kMax});
      }
      out->reserve(static_cast<size_t>(eend - ebeg));
      for (const Shard::Edge* e = ebeg; e != eend; ++e) {
        out->push_back(Triple{lead, (*e)[0], (*e)[1]});
      }
      break;
    }
    case 1: {  // SOP: s and o bound; p ascends within the filtered slice.
      for (const Shard::Edge* e = ebeg; e != eend; ++e) {
        if ((*e)[1] == o) out->push_back(Triple{lead, (*e)[0], o});
      }
      break;
    }
    case 4: {  // OSP: o bound alone; the whole (s, p)-sorted slice.
      out->reserve(static_cast<size_t>(eend - ebeg));
      for (const Shard::Edge* e = ebeg; e != eend; ++e) {
        out->push_back(Triple{(*e)[0], (*e)[1], lead});
      }
      break;
    }
    default:
      // PickScanOrder never sends PSO/POS here (predicate family keeps
      // runs) and never picks OPS at all.
      SOFOS_CHECK(false, "compact scan asked for an unexpected order");
  }
  if (out->empty()) return ScanRange();
  // Compute both pointers before the move: argument evaluation order is
  // unspecified, so `out` must not be read in the same call that moves it.
  const Triple* data = out->data();
  const Triple* data_end = data + out->size();
  return ScanRange(data, data_end, std::move(out));
}

uint64_t TripleStore::CompactCount(const Shard& shard, int order, TermId s,
                                   TermId p, TermId o) const {
  const int family = order / 2;
  const TermId lead = family == kSubjectFamily ? s : o;
  auto it =
      std::lower_bound(shard.node_ids.begin(), shard.node_ids.end(), lead);
  if (it == shard.node_ids.end() || *it != lead) return 0;
  const size_t n = static_cast<size_t>(it - shard.node_ids.begin());
  const Shard::Edge* ebeg = shard.edges.data() + shard.node_offsets[n];
  const Shard::Edge* eend = shard.edges.data() + shard.node_offsets[n + 1];
  constexpr TermId kMax = std::numeric_limits<TermId>::max();
  switch (order) {
    case 0:
      if (p != kNullTermId) {
        ebeg = std::lower_bound(
            ebeg, eend, Shard::Edge{p, o != kNullTermId ? o : 0});
        eend = std::upper_bound(
            ebeg, eend, Shard::Edge{p, o != kNullTermId ? o : kMax});
      }
      return static_cast<uint64_t>(eend - ebeg);
    case 1: {
      uint64_t count = 0;
      for (const Shard::Edge* e = ebeg; e != eend; ++e) {
        if ((*e)[1] == o) ++count;
      }
      return count;
    }
    case 4:
      return static_cast<uint64_t>(eend - ebeg);
    default:
      SOFOS_CHECK(false, "compact count asked for an unexpected order");
  }
  return 0;
}

uint64_t TripleStore::Count(TermId s, TermId p, TermId o) const {
  assert(finalized_ && "Count() requires a finalized store");
  if (canonical_ == nullptr) return 0;
  if (s == kNullTermId && p == kNullTermId && o == kNullTermId) {
    return canonical_->size();
  }
  const int order =
      PickScanOrder(s != kNullTermId, p != kNullTermId, o != kNullTermId);
  const int family = order / 2;
  const TermId lead = family == kSubjectFamily
                          ? s
                          : family == kPredicateFamily ? p : o;
  const Shard& shard =
      *families_[family][ShardIndexFor(lead, shard_count_)];
  if (family == kSubjectFamily && p != kNullTermId &&
      !BloomMayContain(shard, p)) {
    return 0;
  }
  if (shard.compact) return CompactCount(shard, order, s, p, o);
  // Sorted runs: Scan() is already two binary searches with no copy.
  return Scan(s, p, o).size();
}

std::vector<TripleStore::ScanRange> TripleStore::ScanPartitions(
    TermId s, TermId p, TermId o, size_t max_partitions) const {
  ScanRange full = Scan(s, p, o);
  std::vector<ScanRange> parts;
  if (full.empty()) return parts;
  size_t n = full.size();
  size_t chunks = max_partitions < 1 ? 1 : std::min(max_partitions, n);
  parts.reserve(chunks);
  size_t base = n / chunks, extra = n % chunks;
  const Triple* begin = full.begin();
  for (size_t c = 0; c < chunks; ++c) {
    size_t len = base + (c < extra ? 1 : 0);
    // Every partition shares the full range's backing (if any) so compact
    // materializations outlive the morsel that reads them.
    parts.emplace_back(begin, begin + len, full.backing());
    begin += len;
  }
  return parts;
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
  if (canonical_ != nullptr) bytes += canonical_->capacity() * sizeof(Triple);
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
