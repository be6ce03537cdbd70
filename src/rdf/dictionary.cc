#include "rdf/dictionary.h"

#include <cassert>
#include <limits>
#include <mutex>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace sofos {

namespace {

/// Probe-table sizing: power of two, at most half full.
size_t ProbeCapacityFor(size_t entries) {
  size_t cap = 1024;
  while (cap < entries * 2 + 2) cap <<= 1;
  return cap;
}

}  // namespace

Dictionary::Dictionary(Dictionary&& other) noexcept {
  std::unique_lock<std::shared_mutex> lock(other.mu_);
  terms_ = std::move(other.terms_);
  index_ = std::move(other.index_);
  front_coded_ = other.front_coded_;
  packed_ = std::move(other.packed_);
  arena_ = std::move(other.arena_);
  // std::map moves keep node addresses stable, so prefixes_ pointers into
  // prefix_ids_ remain valid after the move.
  prefix_ids_ = std::move(other.prefix_ids_);
  prefixes_ = std::move(other.prefixes_);
  probe_ = std::move(other.probe_);
  decoded_ = std::move(other.decoded_);
  other.front_coded_ = false;
}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    terms_ = std::move(other.terms_);
    index_ = std::move(other.index_);
    front_coded_ = other.front_coded_;
    packed_ = std::move(other.packed_);
    arena_ = std::move(other.arena_);
    prefix_ids_ = std::move(other.prefix_ids_);
    prefixes_ = std::move(other.prefixes_);
    probe_ = std::move(other.probe_);
    decoded_ = std::move(other.decoded_);
    other.front_coded_ = false;
  }
  return *this;
}

uint64_t Dictionary::PackedHashLocked(const Packed& entry) const {
  // Replicates Term::Hash() from the packed fields. FNV-1a is
  // seed-chainable — Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a + b) — so the
  // full lexical hash never needs the concatenated string.
  std::string_view suffix(arena_.data() + entry.offset, entry.lexical_len);
  uint64_t h = entry.prefix != 0
                   ? Fnv1a64(suffix, Fnv1a64(*prefixes_[entry.prefix - 1]))
                   : Fnv1a64(suffix);
  h = HashCombine(h, static_cast<uint64_t>(entry.kind));
  h = HashCombine(h, static_cast<uint64_t>(entry.datatype));
  if (entry.extra_len > 0) {
    std::string_view extra(arena_.data() + entry.offset + entry.lexical_len,
                           entry.extra_len);
    h = HashCombine(h, Fnv1a64(extra));
  }
  return h;
}

bool Dictionary::PackedEqualsLocked(const Packed& entry,
                                    const Term& term) const {
  if (entry.kind != term.kind() || entry.datatype != term.datatype()) {
    return false;
  }
  std::string_view lex = term.lexical();
  std::string_view suffix(arena_.data() + entry.offset, entry.lexical_len);
  if (entry.prefix != 0) {
    const std::string& pre = *prefixes_[entry.prefix - 1];
    if (lex.size() != pre.size() + suffix.size() ||
        lex.substr(0, pre.size()) != pre || lex.substr(pre.size()) != suffix) {
      return false;
    }
  } else if (lex != suffix) {
    return false;
  }
  std::string_view extra(arena_.data() + entry.offset + entry.lexical_len,
                         entry.extra_len);
  return extra == term.raw_extra();
}

TermId Dictionary::FindPackedLocked(const Term& term, uint64_t hash) const {
  if (probe_.empty()) return kNullTermId;
  const size_t mask = probe_.size() - 1;
  for (size_t idx = static_cast<size_t>(hash) & mask;;
       idx = (idx + 1) & mask) {
    TermId id = probe_[idx];
    if (id == kNullTermId) return kNullTermId;
    if (PackedEqualsLocked(packed_[id - 1], term)) return id;
  }
}

void Dictionary::ProbeInsertLocked(TermId id, uint64_t hash) {
  const size_t mask = probe_.size() - 1;
  size_t idx = static_cast<size_t>(hash) & mask;
  while (probe_[idx] != kNullTermId) idx = (idx + 1) & mask;
  probe_[idx] = id;
}

void Dictionary::GrowProbeLocked() {
  probe_.assign(ProbeCapacityFor(packed_.size() + 1), kNullTermId);
  for (TermId id = 1; id <= packed_.size(); ++id) {
    ProbeInsertLocked(id, PackedHashLocked(packed_[id - 1]));
  }
}

Term Dictionary::MaterializeLocked(const Packed& entry) const {
  std::string lexical;
  if (entry.prefix != 0) {
    const std::string& pre = *prefixes_[entry.prefix - 1];
    lexical.reserve(pre.size() + entry.lexical_len);
    lexical.append(pre);
  }
  lexical.append(arena_.data() + entry.offset, entry.lexical_len);
  std::string extra(arena_.data() + entry.offset + entry.lexical_len,
                    entry.extra_len);
  return Term::FromRaw(entry.kind, entry.datatype, std::move(lexical),
                       std::move(extra));
}

TermId Dictionary::AppendPackedLocked(const Term& term, uint64_t hash) {
  Packed entry;
  std::string_view lex = term.lexical();
  std::string_view suffix = lex;
  if (term.kind() == Term::Kind::kIri) {
    // Namespace boundary: everything through the last '/' or '#' is the
    // shared prefix (the standard RDF prefix heuristic).
    size_t cut = lex.find_last_of("/#");
    if (cut != std::string_view::npos && cut > 0) {
      std::string_view pre = lex.substr(0, cut + 1);
      auto it = prefix_ids_.find(pre);
      uint32_t pid;
      if (it != prefix_ids_.end()) {
        pid = it->second;
      } else {
        pid = static_cast<uint32_t>(prefix_ids_.size()) + 1;
        auto [inserted, fresh] = prefix_ids_.emplace(std::string(pre), pid);
        (void)fresh;
        prefixes_.push_back(&inserted->first);
      }
      entry.prefix = pid;
      suffix = lex.substr(cut + 1);
    }
  }
  const std::string& extra = term.raw_extra();
  SOFOS_CHECK(extra.size() <= std::numeric_limits<uint16_t>::max(),
              "term auxiliary string too long for the packed dictionary");
  SOFOS_CHECK(arena_.size() + suffix.size() + extra.size() <=
                  std::numeric_limits<uint32_t>::max(),
              "front-coded dictionary arena overflow");
  entry.offset = static_cast<uint32_t>(arena_.size());
  entry.lexical_len = static_cast<uint32_t>(suffix.size());
  entry.extra_len = static_cast<uint16_t>(extra.size());
  entry.kind = term.kind();
  entry.datatype = term.datatype();
  arena_.insert(arena_.end(), suffix.begin(), suffix.end());
  arena_.insert(arena_.end(), extra.begin(), extra.end());
  packed_.push_back(entry);
  decoded_.emplace_back(nullptr);
  TermId id = static_cast<TermId>(packed_.size());
  if ((packed_.size() + 1) * 2 > probe_.size()) GrowProbeLocked();
  ProbeInsertLocked(id, hash);
  return id;
}

TermId Dictionary::Intern(const Term& term) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (front_coded_) {
      TermId id = FindPackedLocked(term, term.Hash());
      if (id != kNullTermId) return id;
    } else {
      auto it = index_.find(term);
      if (it != index_.end()) return it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-check: another thread may have interned `term` between the locks.
  if (front_coded_) {
    const uint64_t hash = term.Hash();
    TermId id = FindPackedLocked(term, hash);
    if (id != kNullTermId) return id;
    return AppendPackedLocked(term, hash);
  }
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  terms_.push_back(term);
  TermId id = static_cast<TermId>(terms_.size());  // ids start at 1
  index_.emplace(term, id);
  return id;
}

std::optional<TermId> Dictionary::Lookup(const Term& term) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (front_coded_) {
    TermId id = FindPackedLocked(term, term.Hash());
    if (id == kNullTermId) return std::nullopt;
    return id;
  }
  auto it = index_.find(term);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const Term& Dictionary::term(TermId id) const {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!front_coded_) {
      assert(id != kNullTermId && id <= terms_.size());
      return terms_[id - 1];
    }
    assert(id != kNullTermId && id <= packed_.size());
    const Term* cached = decoded_[id - 1].get();
    // Once set, a cache slot never changes and the deque never relocates,
    // so the reference stays valid after the lock is released.
    if (cached != nullptr) return *cached;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& slot = decoded_[id - 1];
  if (slot == nullptr) {
    slot = std::make_unique<const Term>(MaterializeLocked(packed_[id - 1]));
  }
  return *slot;
}

size_t Dictionary::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return front_coded_ ? packed_.size() : terms_.size();
}

bool Dictionary::front_coded() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return front_coded_;
}

size_t Dictionary::NumPrefixes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return prefix_ids_.size();
}

void Dictionary::SetFrontCoding(bool enabled) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (enabled == front_coded_) return;
  if (enabled) {
    // Plain -> packed: re-encode in id order so every existing id keeps
    // decoding to the same term.
    packed_.reserve(terms_.size());
    probe_.assign(ProbeCapacityFor(terms_.size() + 1), kNullTermId);
    front_coded_ = true;
    for (const Term& t : terms_) AppendPackedLocked(t, t.Hash());
    terms_.clear();
    terms_.shrink_to_fit();
    std::unordered_map<Term, TermId, TermHash>().swap(index_);
  } else {
    // Packed -> plain: materialize every id, rebuild the hash index.
    for (TermId id = 1; id <= packed_.size(); ++id) {
      terms_.push_back(MaterializeLocked(packed_[id - 1]));
      index_.emplace(terms_.back(), id);
    }
    front_coded_ = false;
    std::vector<Packed>().swap(packed_);
    std::vector<char>().swap(arena_);
    prefix_ids_.clear();
    std::vector<const std::string*>().swap(prefixes_);
    std::vector<TermId>().swap(probe_);
    decoded_.clear();
    decoded_.shrink_to_fit();
  }
}

uint64_t Dictionary::MemoryBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  uint64_t bytes = 0;
  if (front_coded_) {
    bytes += arena_.capacity();
    bytes += packed_.capacity() * sizeof(Packed);
    bytes += probe_.capacity() * sizeof(TermId);
    bytes += prefixes_.capacity() * sizeof(const std::string*);
    for (const auto& [key, id] : prefix_ids_) {
      (void)id;
      // Map node: key storage + value + tree pointers/color (approximation).
      bytes += sizeof(std::string) + key.capacity() + sizeof(uint32_t) +
               4 * sizeof(void*);
    }
    bytes += decoded_.size() * sizeof(std::unique_ptr<const Term>);
    for (const auto& t : decoded_) {
      if (t != nullptr) {
        bytes += sizeof(Term) + t->lexical().capacity() +
                 t->raw_extra().capacity();
      }
    }
    return bytes;
  }
  for (const Term& t : terms_) {
    bytes += sizeof(Term) + t.lexical().capacity() + t.lang().capacity();
  }
  // Hash index: bucket array + node overhead per entry (approximation).
  bytes += index_.bucket_count() * sizeof(void*);
  bytes += index_.size() * (sizeof(Term) + sizeof(TermId) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace sofos
