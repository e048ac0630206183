// One inverted-index component of the LSM-tree (an "I_i" in the paper).
//
// A component maps TermId -> postings. Level-0 components are mutable
// (append-only per term); components produced by merges are sealed, and
// optionally Huffman-compressed. Queries access terms through
// TermPostingsView, which hides whether a decode was necessary.

#ifndef RTSI_INDEX_INVERTED_INDEX_H_
#define RTSI_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "common/window_arena.h"
#include "index/compressed_postings.h"
#include "index/freshness_ceiling.h"
#include "index/posting.h"
#include "index/skip_header.h"
#include "index/term_postings.h"

namespace rtsi::index {

/// Read access to a term's postings: either a pointer into the component
/// (plain storage) or an owned decoded copy (compressed storage).
class TermPostingsView {
 public:
  TermPostingsView() = default;
  explicit TermPostingsView(const TermPostings* borrowed)
      : borrowed_(borrowed) {}
  explicit TermPostingsView(TermPostings owned)
      : owned_(std::move(owned)), has_owned_(true) {}

  const TermPostings* get() const {
    return has_owned_ ? &owned_ : borrowed_;
  }
  const TermPostings& operator*() const { return *get(); }
  const TermPostings* operator->() const { return get(); }
  explicit operator bool() const { return has_owned_ || borrowed_ != nullptr; }

 private:
  const TermPostings* borrowed_ = nullptr;
  TermPostings owned_;
  bool has_owned_ = false;
};

/// Relevance bound of one term inside one component, for query pruning
/// (popularity and freshness are bounded by live ceilings instead; see
/// exec::SelectedComponent).
struct TermBounds {
  TermFreq max_tf = 0;
  bool present = false;
};

class InvertedIndex {
 public:
  explicit InvertedIndex(int level = 0) : level_(level) {}

  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Appends `posting` to `term`'s list. Only valid on uncompressed,
  /// unsealed components (level 0). New term lists allocate their unsealed
  /// entries from the arena set via set_arena() (nullptr = global heap).
  void Add(TermId term, const Posting& posting);

  /// Arena for subsequently created term lists (level-0 ingest). Existing
  /// lists keep the allocator they were created with — FreezeL0 swaps the
  /// arena only after TakeTerms() emptied the component.
  void set_arena(WindowArena* arena) { arena_ = arena; }
  WindowArena* arena() const { return arena_; }

  /// Quarantines a retired arena on this component: frozen L0 postings
  /// reference its slabs until Seal() migrates them, and pinned IndexViews
  /// may hold the pre-seal state alive, so the arena must die with the
  /// component (after the last pin drops), never earlier.
  void RetainArena(std::unique_ptr<WindowArena> arena) {
    if (arena != nullptr) retained_arenas_.push_back(std::move(arena));
  }

  /// Moves a whole posting list in (used by merges). The component takes
  /// ownership; posting count is updated.
  void Put(TermId term, TermPostings postings);

  /// Plain postings of `term`, or nullptr if absent or compressed away.
  const TermPostings* GetPlain(TermId term) const;

  /// Unified read access; empty view when the term is absent.
  TermPostingsView View(TermId term) const;

  /// Per-term maxima without decoding (pruning bounds).
  TermBounds Bounds(TermId term) const;

  /// Seals every term list (sorts the three views). Idempotent.
  void SealAll();

  /// Consolidates duplicate per-stream postings of every term (the merge
  /// fold: summed tf, newest frsh, largest pop), then seals. The freeze
  /// path uses this so sealed components always hold one aggregated
  /// posting per (term, stream) — the invariant the pruning bounds
  /// assume. Idempotent; a no-op on already-consolidated data.
  void ConsolidateAndSealAll();

  /// Converts every plain list to the Huffman-compressed representation.
  /// Requires SealAll() first (merge output is always sealed).
  void CompressAll();

  bool compressed() const { return compressed_; }
  int level() const { return level_; }
  void set_level(int level) { level_ = level; }

  /// Gives the component its permanent identity and live-freshness ceiling
  /// cell (done when it becomes a sealed, query-visible component: at an
  /// L0 freeze, as a merge output, or on snapshot restore). The cell is
  /// raised to the largest stored freshness so it is a valid ceiling from
  /// the first read.
  void AdoptCeiling(ComponentId id, FreshnessCeilingPtr cell) {
    id_ = id;
    if (cell != nullptr) cell->Bump(max_stored_frsh_);
    ceiling_ = std::move(cell);
  }

  /// Raises the ceiling cell (merge output inheriting its inputs' ceilings;
  /// snapshot restore folding in the persisted value). Const because the
  /// cell is shared mutable state by design — bumps arrive through
  /// query-visible snapshots too.
  void BumpCeiling(Timestamp frsh) const {
    if (ceiling_ != nullptr) ceiling_->Bump(frsh);
  }

  ComponentId component_id() const { return id_; }
  bool has_ceiling() const { return ceiling_ != nullptr; }
  const FreshnessCeilingPtr& ceiling_cell() const { return ceiling_; }

  /// Upper bound on the *live* freshness of every stream with postings in
  /// this component: the residency-bumped cell, floored by the largest
  /// freshness stored in the component itself.
  Timestamp LiveFrshCeiling() const {
    const Timestamp cell = ceiling_ != nullptr ? ceiling_->Get() : 0;
    return cell > max_stored_frsh_ ? cell : max_stored_frsh_;
  }

  /// Largest freshness across all postings of all terms (tracked on
  /// Add/Put, survives compression).
  Timestamp max_stored_frsh() const { return max_stored_frsh_; }

  /// Builds the immutable skip header (term Bloom filter + per-term bound
  /// summaries) from the current term set. Called once when the component
  /// seals (FreezeL0 / merge output / snapshot restore of a pre-v4 file);
  /// seals any still-unsealed plain lists first so the per-stream
  /// aggregates exist. Replaces any previous header.
  void BuildSkipHeader();

  /// Installs a header restored bit-exactly from a v4 snapshot.
  void AdoptSkipHeader(SkipHeader header);

  /// The component's skip header, or nullptr before BuildSkipHeader().
  const SkipHeader* skip_header() const { return skip_header_.get(); }

  /// Charges the header's bytes to `tracker`'s kSkipHeader category and
  /// releases them when the component is destroyed. The tracker is kept
  /// alive by the shared_ptr, so retirement after the owning tree is gone
  /// still balances the category to zero (same pattern as the LSM view
  /// gauge). Re-attaching replaces the previous charge.
  void AttachSkipHeaderGauge(std::shared_ptr<MemoryTracker> tracker);

  std::size_t num_terms() const {
    return compressed_ ? compressed_terms_.size() : terms_.size();
  }
  std::size_t num_postings() const { return num_postings_; }
  bool empty() const { return num_postings_ == 0; }

  /// Heap bytes of all posting storage (exact for the structures we own).
  std::size_t MemoryBytes() const;

  /// Moves all plain term lists out, leaving the component empty.
  /// Used when freezing level 0 into an immutable component.
  std::unordered_map<TermId, TermPostings> TakeTerms();

  /// Calls fn(TermId, const TermPostings&) for every term. On compressed
  /// components each term is decoded for the duration of the call.
  template <typename Fn>
  void ForEachTerm(Fn&& fn) const {
    if (compressed_) {
      for (const auto& [term, compressed] : compressed_terms_) {
        const TermPostings decoded = compressed.Decode();
        fn(term, decoded);
      }
    } else {
      for (const auto& [term, postings] : terms_) {
        fn(term, postings);
      }
    }
  }

 private:
  // RAII release of the kSkipHeader byte charge; owns a tracker reference
  // so the release outlives the LSM tree (retired components drain late).
  struct SkipHeaderCharge {
    std::shared_ptr<MemoryTracker> tracker;
    std::size_t bytes = 0;
    ~SkipHeaderCharge() {
      if (tracker != nullptr) tracker->Sub(MemCategory::kSkipHeader, bytes);
    }
  };

  int level_;
  bool compressed_ = false;
  WindowArena* arena_ = nullptr;  // Not owned; for new L0 term lists.
  // Retired ingest arenas that postings of this component were carved
  // from; freed with the component (after the last pinned view drops).
  std::vector<std::unique_ptr<WindowArena>> retained_arenas_;
  std::size_t num_postings_ = 0;
  ComponentId id_ = kInvalidComponentId;
  Timestamp max_stored_frsh_ = 0;
  FreshnessCeilingPtr ceiling_;
  std::unordered_map<TermId, TermPostings> terms_;
  std::unordered_map<TermId, CompressedTermPostings> compressed_terms_;
  std::unique_ptr<SkipHeader> skip_header_;
  std::unique_ptr<SkipHeaderCharge> skip_charge_;
};

}  // namespace rtsi::index

#endif  // RTSI_INDEX_INVERTED_INDEX_H_
