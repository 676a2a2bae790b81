// archive.hpp — HDF5-style archival container for DAQ data (§6 (2)).
//
// The paper's future work asks how on-path or end-site resources can
// "transcode into other formats, such as HDF5 which is ubiquitously used
// for storage in scientific computing". This module is the storage-side
// substrate for that: a self-describing chunked container with the
// HDF5 properties that matter for DAQ archiving —
//   * a superblock with magic, version and a root index offset,
//   * per-experiment datasets of fixed-format records,
//   * chunked layout with per-chunk CRC32C (like HDF5's Fletcher filter),
//   * string attributes attached to the file and each dataset,
//   * an index footer so readers can open without scanning.
// It is not the HDF5 wire format (substitution documented in DESIGN.md);
// it is format-shaped the same way, and round-trips losslessly.
#pragma once

#include "common/bytes.hpp"
#include "daq/message.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mmtp::daq {

/// One archived record: the transport-level metadata plus payload bytes.
struct archived_record {
    std::uint64_t sequence{0};
    std::uint64_t timestamp_ns{0};
    std::uint32_t size_bytes{0}; // original message size (payload may be smaller)
    std::vector<std::uint8_t> payload;

    bool operator==(const archived_record&) const = default;
};

struct archive_limits {
    /// Records per chunk before the chunk is sealed and checksummed.
    std::uint32_t chunk_records{256};
    /// Largest accepted record payload in bytes (0 = unlimited). An
    /// oversized append is rejected — returned false and counted — so a
    /// runaway producer cannot grow chunks without bound.
    std::uint32_t max_record_bytes{0};
    /// Cap on records per dataset, expressed in sealed chunks
    /// (0 = unlimited): once a dataset holds chunk_records *
    /// max_chunks_per_dataset records, further appends to it are
    /// rejected. finalize() therefore never emits more than
    /// max_chunks_per_dataset chunks for any dataset.
    std::uint32_t max_chunks_per_dataset{0};
    /// Cap on distinct datasets created by append (0 = unlimited);
    /// appends that would create one more are rejected.
    std::uint32_t max_datasets{0};
};

/// Append-path accounting: every rejected record is counted under the
/// limit that refused it (nothing is dropped silently).
struct archive_writer_stats {
    std::uint64_t appended{0};
    std::uint64_t rejected_oversize{0};
    std::uint64_t rejected_chunk_cap{0};
    std::uint64_t rejected_dataset_cap{0};
    std::uint64_t chunks_sealed{0};
};

/// Serializes datasets of archived_records into a single byte blob.
class archive_writer {
public:
    explicit archive_writer(archive_limits limits = {});

    /// File-level attribute (e.g. "facility" -> "dune-far-site").
    void set_attribute(const std::string& key, const std::string& value);

    /// Appends a record to the dataset of `experiment` (created lazily).
    /// Returns false — and counts the rejection — when an archive_limits
    /// cap refuses it; the writer stays usable either way.
    bool append(wire::experiment_id experiment, const archived_record& r);

    /// The same, for a record whose payload is `head` followed by `tail`:
    /// the record is serialized straight into the dataset's open chunk,
    /// so appending allocates nothing beyond the chunk buffer's growth.
    bool append(wire::experiment_id experiment, std::uint64_t sequence,
                std::uint64_t timestamp_ns, std::uint32_t size_bytes,
                std::span<const std::uint8_t> head, std::span<const std::uint8_t> tail = {});

    /// Seals every open chunk now (the durability point a crash cannot
    /// take back), without finalizing. Chunks sealed early may hold
    /// fewer than chunk_records records; readers do not care.
    void seal_open_chunks();

    /// Drops every record still in an open (unsealed) chunk — the model
    /// of a crash losing the buffered tail that never reached disk.
    /// Returns how many records were discarded.
    std::uint64_t discard_open_chunks();

    /// Dataset-level attribute.
    void set_dataset_attribute(wire::experiment_id experiment, const std::string& key,
                               const std::string& value);

    /// Seals all chunks, writes the index footer, returns the blob.
    /// The writer is spent afterwards.
    std::vector<std::uint8_t> finalize();

    std::uint64_t records_written() const { return records_; }
    /// Records currently durable (inside sealed chunks).
    std::uint64_t sealed_records() const;
    /// Records still in open chunks (lost if discard_open_chunks runs).
    std::uint64_t open_records() const;
    const archive_writer_stats& stats() const { return stats_; }

private:
    struct dataset {
        /// Serialized chunks — u32 CRC-32C, u32 record count, records —
        /// the sealed ones first, then the open one (from open_offset),
        /// whose CRC and count are placeholders until seal_chunk.
        std::vector<std::uint8_t> chunks;
        std::size_t open_offset{0};
        std::uint32_t open_count{0};
        std::vector<std::pair<std::uint64_t, std::uint64_t>> chunk_spans; // offset,len
        std::vector<std::uint32_t> chunk_counts;
        std::map<std::string, std::string> attributes;
        std::uint64_t record_count{0};
    };

    void seal_chunk(dataset& ds);

    archive_limits limits_;
    std::map<wire::experiment_id, dataset> datasets_;
    std::map<std::string, std::string> attributes_;
    std::uint64_t records_{0};
    archive_writer_stats stats_;
};

/// Parses a blob produced by archive_writer; validates magic, version and
/// every chunk checksum up front.
class archive_reader {
public:
    /// Returns std::nullopt on malformed input or checksum mismatch.
    static std::optional<archive_reader> open(std::vector<std::uint8_t> blob);

    std::vector<wire::experiment_id> dataset_ids() const;
    std::uint64_t record_count(wire::experiment_id experiment) const;

    /// All records of a dataset, in append order.
    std::vector<archived_record> read_all(wire::experiment_id experiment) const;

    /// Random access by dataset-relative index (chunk-granular seek).
    std::optional<archived_record> read_at(wire::experiment_id experiment,
                                           std::uint64_t index) const;

    std::optional<std::string> attribute(const std::string& key) const;
    std::optional<std::string> dataset_attribute(wire::experiment_id experiment,
                                                 const std::string& key) const;
    /// All file-level attributes (for journal-style metadata scans).
    const std::map<std::string, std::string>& attributes() const { return attributes_; }

private:
    archive_reader() = default;

    struct chunk_ref {
        std::uint64_t offset;
        std::uint64_t length;
        std::uint32_t records;
    };
    struct dataset_view {
        std::vector<chunk_ref> chunks;
        std::map<std::string, std::string> attributes;
        std::uint64_t record_count{0};
    };

    std::vector<archived_record> parse_chunk(const chunk_ref& c) const;

    std::vector<std::uint8_t> blob_;
    std::map<wire::experiment_id, dataset_view> datasets_;
    std::map<std::string, std::string> attributes_;
};

constexpr std::uint64_t archive_magic = 0x4d4d545041524348ull; // "MMTPARCH"
constexpr std::uint16_t archive_version = 1;

} // namespace mmtp::daq
