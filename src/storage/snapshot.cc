#include "storage/snapshot.h"

#include <cstring>
#include <unordered_set>
#include <utility>
#include <vector>

#include "index/compressed_postings.h"
#include "index/skip_header.h"
#include "storage/file_io.h"

namespace rtsi::storage {
namespace {

using core::RtsiConfig;
using core::RtsiIndex;
using index::CompressedTermPostings;
using index::Posting;
using index::StreamInfo;
using index::TermPostings;

// The v5 layout's bound-mode slot. Older writers stored 0 or 1 for two
// bound modes; the index now prunes with one bound whatever the slot
// says, so the writer fixes it at 1 and the reader only range-checks it.
constexpr std::uint32_t kBoundSlot = 1;

void WriteConfig(SnapshotWriter& writer, const RtsiConfig& config) {
  writer.WriteU64(config.lsm.delta);
  writer.WriteDouble(config.lsm.rho);
  writer.WriteU32(config.lsm.compress ? 1 : 0);
  writer.WriteU64(config.lsm.num_l0_shards);
  writer.WriteDouble(config.weights.pop);
  writer.WriteDouble(config.weights.rel);
  writer.WriteDouble(config.weights.frsh);
  writer.WriteDouble(config.freshness_tau_seconds);
  writer.WriteU32(config.use_bound ? 1 : 0);
  writer.WriteU32(kBoundSlot);
  writer.WriteU32(static_cast<std::uint32_t>(config.default_k));
  // v5: the compaction policy and its tiering knob, so the restored tree
  // keeps folding runs the way the saved one did.
  writer.WriteU32(static_cast<std::uint32_t>(config.lsm.policy));
  writer.WriteU64(config.lsm.tier_runs);
}

bool ReadConfig(SnapshotReader& reader, RtsiConfig& config) {
  std::uint64_t delta = 0, shards = 0;
  std::uint32_t compress = 0, use_bound = 0, bound_mode = 0, k = 0;
  if (!reader.ReadU64(delta) || !reader.ReadDouble(config.lsm.rho) ||
      !reader.ReadU32(compress) || !reader.ReadU64(shards) ||
      !reader.ReadDouble(config.weights.pop) ||
      !reader.ReadDouble(config.weights.rel) ||
      !reader.ReadDouble(config.weights.frsh) ||
      !reader.ReadDouble(config.freshness_tau_seconds) ||
      !reader.ReadU32(use_bound) || !reader.ReadU32(bound_mode) ||
      !reader.ReadU32(k)) {
    return false;
  }
  config.lsm.delta = delta;
  config.lsm.compress = compress != 0;
  config.lsm.num_l0_shards = shards;
  config.use_bound = use_bound != 0;
  if (bound_mode > kBoundSlot) return false;
  config.default_k = static_cast<int>(k);
  if (reader.version() >= 5) {
    std::uint32_t policy = 0;
    std::uint64_t tier_runs = 0;
    if (!reader.ReadU32(policy) || !reader.ReadU64(tier_runs)) return false;
    if (policy > static_cast<std::uint32_t>(lsm::MergePolicy::kTiered)) {
      return false;
    }
    config.lsm.policy = static_cast<lsm::MergePolicy>(policy);
    config.lsm.tier_runs = tier_runs;
  }
  // <= v4 files predate the policy field; their writers ran the geometric
  // cascade, which config defaults already select.
  return true;
}

}  // namespace

Status SaveIndexSnapshot(const RtsiIndex& index, const std::string& path,
                         std::uint64_t journal_epoch) {
  SnapshotWriter writer;
  Status status = writer.Open(path, kSnapshotVersion);
  if (!status.ok()) return status;

  WriteConfig(writer, index.config());
  writer.WriteU64(journal_epoch);

  // Document frequencies.
  {
    const auto& df = index.doc_freq();
    writer.WriteU64(df.num_documents());
    std::vector<std::pair<TermId, std::uint64_t>> entries;
    df.ForEach([&](TermId term, std::uint64_t count) {
      entries.emplace_back(term, count);
    });
    writer.WriteVarint(entries.size());
    for (const auto& [term, count] : entries) {
      writer.WriteVarint(term);
      writer.WriteVarint(count);
    }
  }

  // Stream-info table (including tombstones).
  {
    std::vector<std::pair<StreamId, StreamInfo>> entries;
    index.stream_table().ForEach(
        [&](StreamId stream, const StreamInfo& info) {
          entries.emplace_back(stream, info);
        });
    writer.WriteVarint(entries.size());
    for (const auto& [stream, info] : entries) {
      writer.WriteVarint(stream);
      writer.WriteVarint(info.pop_count);
      writer.WriteVarint(static_cast<std::uint64_t>(info.frsh));
      writer.WriteVarint(info.component_count);
      writer.WriteU32((info.live ? 1u : 0u) | (info.deleted ? 2u : 0u) |
                      (info.content_seen ? 4u : 0u) |
                      (info.finished ? 8u : 0u));
    }
  }

  // Live-term table.
  {
    std::vector<std::pair<StreamId, std::vector<std::pair<TermId, TermFreq>>>>
        entries;
    index.live_table().ForEachStream(
        [&](StreamId stream,
            const std::unordered_map<TermId, TermFreq>& terms) {
          std::vector<std::pair<TermId, TermFreq>> flat(terms.begin(),
                                                        terms.end());
          entries.emplace_back(stream, std::move(flat));
        });
    writer.WriteVarint(entries.size());
    for (const auto& [stream, terms] : entries) {
      writer.WriteVarint(stream);
      writer.WriteVarint(terms.size());
      for (const auto& [term, total] : terms) {
        writer.WriteVarint(term);
        writer.WriteVarint(total);
      }
    }
  }

  // Sealed components (always stored compressed).
  {
    const auto components = index.tree().SealedSnapshot();
    writer.WriteVarint(components.size());
    for (const auto& component : components) {
      writer.WriteU32(static_cast<std::uint32_t>(component->level()));
      // Live-freshness ceiling at save time: a valid ceiling for every
      // resident stream's freshness as of the snapshot. The restore path
      // re-registers residencies, so later inserts keep it tight.
      writer.WriteVarint(
          static_cast<std::uint64_t>(component->LiveFrshCeiling()));
      // v4: the immutable skip header, bit-exact. Every tree-owned
      // component carries one; the empty-blob fallback keeps the format
      // well-defined for components built outside the tree lifecycle.
      const index::SkipHeader* header = component->skip_header();
      writer.WriteBlob(header != nullptr ? header->Serialize()
                                         : std::vector<std::uint8_t>{});
      writer.WriteVarint(component->num_terms());
      component->ForEachTerm([&](TermId term, const TermPostings& postings) {
        writer.WriteVarint(term);
        const auto compressed =
            CompressedTermPostings::FromPostings(postings);
        writer.WriteBlob(compressed.blob());
      });
    }
  }

  // L0 postings (raw, arrival order).
  {
    std::vector<std::pair<TermId, std::vector<Posting>>> terms;
    index.tree().ForEachL0Term(
        [&](TermId term, const TermPostings& postings) {
          const auto entries = postings.entries();
          terms.emplace_back(term, std::vector<Posting>(entries.begin(),
                                                        entries.end()));
        });
    writer.WriteVarint(terms.size());
    for (const auto& [term, postings] : terms) {
      writer.WriteVarint(term);
      writer.WriteVarint(postings.size());
      for (const Posting& p : postings) {
        writer.WriteVarint(p.stream);
        std::uint32_t pop_bits;
        std::memcpy(&pop_bits, &p.pop, sizeof(pop_bits));
        writer.WriteU32(pop_bits);
        writer.WriteVarint(static_cast<std::uint64_t>(p.frsh));
        writer.WriteVarint(p.tf);
      }
    }
  }

  return writer.Finish();
}

Result<std::unique_ptr<RtsiIndex>> LoadIndexSnapshot(
    const std::string& path, std::uint64_t* journal_epoch) {
  if (journal_epoch != nullptr) *journal_epoch = 0;
  SnapshotReader reader;
  Status status = reader.Open(path, kMinSnapshotVersion, kSnapshotVersion);
  if (!status.ok()) return status;

  RtsiConfig config;
  if (!ReadConfig(reader, config)) {
    return Status::Internal("snapshot: bad config section");
  }
  if (reader.version() >= 3) {
    std::uint64_t epoch = 0;
    if (!reader.ReadU64(epoch)) {
      return Status::Internal("snapshot: bad journal epoch");
    }
    if (journal_epoch != nullptr) *journal_epoch = epoch;
  }
  auto index = std::make_unique<RtsiIndex>(config);

  // Document frequencies.
  {
    std::uint64_t num_documents = 0, count = 0;
    if (!reader.ReadU64(num_documents) || !reader.ReadVarint(count)) {
      return Status::Internal("snapshot: bad df header");
    }
    index->mutable_doc_freq().SetNumDocuments(num_documents);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t term = 0, df = 0;
      if (!reader.ReadVarint(term) || !reader.ReadVarint(df)) {
        return Status::Internal("snapshot: bad df entry");
      }
      index->mutable_doc_freq().RestoreEntry(static_cast<TermId>(term), df);
    }
  }

  // Stream-info table.
  {
    std::uint64_t count = 0;
    if (!reader.ReadVarint(count)) {
      return Status::Internal("snapshot: bad stream table header");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t stream = 0, pop = 0, frsh = 0, components = 0;
      std::uint32_t flags = 0;
      if (!reader.ReadVarint(stream) || !reader.ReadVarint(pop) ||
          !reader.ReadVarint(frsh) || !reader.ReadVarint(components) ||
          !reader.ReadU32(flags)) {
        return Status::Internal("snapshot: bad stream entry");
      }
      StreamInfo info;
      info.pop_count = pop;
      info.frsh = static_cast<Timestamp>(frsh);
      info.component_count = static_cast<std::uint32_t>(components);
      info.live = (flags & 1u) != 0;
      info.deleted = (flags & 2u) != 0;
      info.content_seen = (flags & 4u) != 0;
      info.finished = (flags & 8u) != 0;
      index->mutable_stream_table().RestoreEntry(stream, info);
    }
  }

  // Live-term table.
  {
    std::uint64_t num_streams = 0;
    if (!reader.ReadVarint(num_streams)) {
      return Status::Internal("snapshot: bad live table header");
    }
    for (std::uint64_t i = 0; i < num_streams; ++i) {
      std::uint64_t stream = 0, num_terms = 0;
      if (!reader.ReadVarint(stream) || !reader.ReadVarint(num_terms)) {
        return Status::Internal("snapshot: bad live table entry");
      }
      for (std::uint64_t t = 0; t < num_terms; ++t) {
        std::uint64_t term = 0, total = 0;
        if (!reader.ReadVarint(term) || !reader.ReadVarint(total)) {
          return Status::Internal("snapshot: bad live term entry");
        }
        index->mutable_live_table().Add(stream, static_cast<TermId>(term),
                                        static_cast<TermFreq>(total));
      }
    }
  }

  // Sealed components.
  {
    std::uint64_t num_components = 0;
    if (!reader.ReadVarint(num_components)) {
      return Status::Internal("snapshot: bad component header");
    }
    std::unordered_set<StreamId> resident;
    for (std::uint64_t c = 0; c < num_components; ++c) {
      std::uint32_t level = 0;
      std::uint64_t ceiling = 0, num_terms = 0;
      // v1 component entries carry no ceiling varint. Leaving `ceiling`
      // at 0 is still sound: the residency re-registration below folds
      // every resident stream's restored live freshness into the fresh
      // cell, which is exactly the coverage the ceiling must provide.
      if (!reader.ReadU32(level) ||
          (reader.version() >= 2 && !reader.ReadVarint(ceiling))) {
        return Status::Internal("snapshot: bad component entry");
      }
      // v4 carries the skip header bit-exact; <= v3 leaves the blob empty
      // and RestoreSealedComponent rebuilds it deterministically from the
      // decoded postings.
      std::vector<std::uint8_t> header_blob;
      if (reader.version() >= 4 && !reader.ReadBlob(header_blob)) {
        return Status::Internal("snapshot: bad skip-header blob");
      }
      if (!reader.ReadVarint(num_terms)) {
        return Status::Internal("snapshot: bad component entry");
      }
      auto component =
          std::make_shared<index::InvertedIndex>(static_cast<int>(level));
      if (!header_blob.empty()) {
        index::SkipHeader header;
        if (!index::SkipHeader::Deserialize(header_blob.data(),
                                            header_blob.size(), header)) {
          return Status::Internal("snapshot: corrupt skip header");
        }
        component->AdoptSkipHeader(std::move(header));
      }
      std::vector<std::uint8_t> blob;
      resident.clear();
      for (std::uint64_t t = 0; t < num_terms; ++t) {
        std::uint64_t term = 0;
        if (!reader.ReadVarint(term) || !reader.ReadBlob(blob)) {
          return Status::Internal("snapshot: bad component term");
        }
        TermPostings postings = CompressedTermPostings::DecodeBlob(blob);
        if (postings.empty() && !blob.empty()) {
          return Status::Internal("snapshot: corrupt posting blob");
        }
        for (const Posting& p : postings.entries()) {
          resident.insert(p.stream);
        }
        component->Put(static_cast<TermId>(term), std::move(postings));
      }
      if (config.lsm.compress) component->CompressAll();
      status = index->mutable_tree().RestoreSealedComponent(component);
      if (!status.ok()) return status;
      // RestoreSealedComponent gave the component its identity and ceiling
      // cell; fold in the persisted ceiling and re-register every resident
      // stream so future inserts keep bumping it (exactly the freeze-time
      // registration, reconstructed from the decoded postings).
      component->BumpCeiling(static_cast<Timestamp>(ceiling));
      for (const StreamId stream : resident) {
        index->mutable_stream_table().AddSealedResidency(
            stream, component->component_id(), component->ceiling_cell());
      }
    }
  }

  // L0 postings.
  {
    std::uint64_t num_terms = 0;
    if (!reader.ReadVarint(num_terms)) {
      return Status::Internal("snapshot: bad L0 header");
    }
    for (std::uint64_t t = 0; t < num_terms; ++t) {
      std::uint64_t term = 0, count = 0;
      if (!reader.ReadVarint(term) || !reader.ReadVarint(count)) {
        return Status::Internal("snapshot: bad L0 term");
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t stream = 0, frsh = 0, tf = 0;
        std::uint32_t pop_bits = 0;
        if (!reader.ReadVarint(stream) || !reader.ReadU32(pop_bits) ||
            !reader.ReadVarint(frsh) || !reader.ReadVarint(tf)) {
          return Status::Internal("snapshot: bad L0 posting");
        }
        Posting posting;
        posting.stream = stream;
        std::memcpy(&posting.pop, &pop_bits, sizeof(pop_bits));
        posting.frsh = static_cast<Timestamp>(frsh);
        posting.tf = static_cast<TermFreq>(tf);
        // AddPosting repopulates the L0 stream-seen set as a side effect;
        // the first-in-epoch return is ignored because residency counts
        // were already restored with the stream table.
        index->mutable_tree().AddPosting(static_cast<TermId>(term), posting);
      }
    }
  }

  if (!reader.AtEnd()) {
    return Status::Internal("snapshot: trailing bytes");
  }
  return index;
}

}  // namespace rtsi::storage
