#include "daq/archive.hpp"

#include "common/crc32c.hpp"

namespace mmtp::daq {

namespace {

void write_string(byte_writer& w, const std::string& s)
{
    w.u16(static_cast<std::uint16_t>(s.size()));
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::optional<std::string> read_string(byte_reader& r)
{
    const auto n = r.u16();
    const auto bytes = r.bytes(n);
    if (r.failed()) return std::nullopt;
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

void write_attributes(byte_writer& w, const std::map<std::string, std::string>& attrs)
{
    w.u16(static_cast<std::uint16_t>(attrs.size()));
    for (const auto& [k, v] : attrs) {
        write_string(w, k);
        write_string(w, v);
    }
}

std::optional<std::map<std::string, std::string>> read_attributes(byte_reader& r)
{
    std::map<std::string, std::string> out;
    const auto n = r.u16();
    if (r.failed()) return std::nullopt; // truncated count must fail closed
    for (std::uint16_t i = 0; i < n; ++i) {
        auto k = read_string(r);
        auto v = read_string(r);
        if (!k || !v) return std::nullopt;
        out[*k] = *v;
    }
    return out;
}

} // namespace

// ----------------------------------------------------------- writer

archive_writer::archive_writer(archive_limits limits) : limits_(limits) {}

void archive_writer::set_attribute(const std::string& key, const std::string& value)
{
    attributes_[key] = value;
}

void archive_writer::set_dataset_attribute(wire::experiment_id experiment,
                                           const std::string& key,
                                           const std::string& value)
{
    datasets_[experiment].attributes[key] = value;
}

bool archive_writer::append(wire::experiment_id experiment, const archived_record& r)
{
    return append(experiment, r.sequence, r.timestamp_ns, r.size_bytes, r.payload);
}

bool archive_writer::append(wire::experiment_id experiment, std::uint64_t sequence,
                            std::uint64_t timestamp_ns, std::uint32_t size_bytes,
                            std::span<const std::uint8_t> head,
                            std::span<const std::uint8_t> tail)
{
    const std::size_t payload = head.size() + tail.size();
    if (limits_.max_record_bytes != 0 && payload > limits_.max_record_bytes) {
        stats_.rejected_oversize++;
        return false;
    }
    auto it = datasets_.find(experiment);
    if (it == datasets_.end()) {
        if (limits_.max_datasets != 0 && datasets_.size() >= limits_.max_datasets) {
            stats_.rejected_dataset_cap++;
            return false;
        }
        it = datasets_.try_emplace(experiment).first;
    }
    auto& ds = it->second;
    if (limits_.max_chunks_per_dataset != 0
        && ds.record_count >= static_cast<std::uint64_t>(limits_.max_chunks_per_dataset)
                * limits_.chunk_records) {
        stats_.rejected_chunk_cap++;
        return false;
    }
    byte_writer w(ds.chunks);
    if (ds.open_count == 0) {
        ds.open_offset = ds.chunks.size();
        w.u32(0); // CRC-32C, patched at seal
        w.u32(0); // record count, patched at seal
    }
    w.u64(sequence);
    w.u64(timestamp_ns);
    w.u32(size_bytes);
    w.u32(static_cast<std::uint32_t>(payload));
    w.bytes(head);
    w.bytes(tail);
    ds.open_count++;
    ds.record_count++;
    records_++;
    stats_.appended++;
    if (ds.open_count >= limits_.chunk_records) seal_chunk(ds);
    return true;
}

void archive_writer::seal_open_chunks()
{
    for (auto& [id, ds] : datasets_) seal_chunk(ds);
}

std::uint64_t archive_writer::discard_open_chunks()
{
    std::uint64_t dropped = 0;
    for (auto& [id, ds] : datasets_) {
        if (ds.open_count == 0) continue;
        dropped += ds.open_count;
        ds.record_count -= ds.open_count;
        records_ -= ds.open_count;
        ds.chunks.resize(ds.open_offset);
        ds.open_count = 0;
    }
    return dropped;
}

std::uint64_t archive_writer::sealed_records() const
{
    std::uint64_t n = 0;
    for (const auto& [id, ds] : datasets_)
        for (const auto c : ds.chunk_counts) n += c;
    return n;
}

std::uint64_t archive_writer::open_records() const
{
    std::uint64_t n = 0;
    for (const auto& [id, ds] : datasets_) n += ds.open_count;
    return n;
}

namespace {

void patch_u32(std::uint8_t* at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * (3 - i)));
}

} // namespace

void archive_writer::seal_chunk(dataset& ds)
{
    if (ds.open_count == 0) return;
    std::uint8_t* chunk = ds.chunks.data() + ds.open_offset;
    const std::size_t length = ds.chunks.size() - ds.open_offset;
    patch_u32(chunk + 4, ds.open_count);
    patch_u32(chunk, crc32c({chunk + 4, length - 4})); // over count + records
    ds.chunk_spans.push_back({ds.open_offset, length});
    ds.chunk_counts.push_back(ds.open_count);
    ds.open_count = 0;
    stats_.chunks_sealed++;
}

std::vector<std::uint8_t> archive_writer::finalize()
{
    for (auto& [id, ds] : datasets_) seal_chunk(ds);

    byte_writer w;
    // superblock: magic, version, placeholder for index offset
    w.u64(archive_magic);
    w.u16(archive_version);
    const std::size_t index_offset_pos = w.size();
    w.u64(0); // patched below (we patch via rebuild: byte_writer lacks u64 patch)

    // dataset chunk payloads, recording absolute offsets
    std::map<wire::experiment_id, std::uint64_t> base_offsets;
    for (auto& [id, ds] : datasets_) {
        base_offsets[id] = w.size();
        w.bytes(ds.chunks);
    }

    const std::uint64_t index_offset = w.size();
    // index: file attributes, then datasets
    write_attributes(w, attributes_);
    w.u32(static_cast<std::uint32_t>(datasets_.size()));
    for (auto& [id, ds] : datasets_) {
        w.u32(id);
        w.u64(ds.record_count);
        write_attributes(w, ds.attributes);
        w.u32(static_cast<std::uint32_t>(ds.chunk_spans.size()));
        for (std::size_t i = 0; i < ds.chunk_spans.size(); ++i) {
            w.u64(base_offsets[id] + ds.chunk_spans[i].first);
            w.u64(ds.chunk_spans[i].second);
            w.u32(ds.chunk_counts[i]);
        }
    }

    auto blob = w.take();
    // patch the index offset (big-endian u64 at index_offset_pos)
    for (int i = 0; i < 8; ++i)
        blob[index_offset_pos + i] =
            static_cast<std::uint8_t>(index_offset >> (8 * (7 - i)));
    datasets_.clear();
    return blob;
}

// ----------------------------------------------------------- reader

std::optional<archive_reader> archive_reader::open(std::vector<std::uint8_t> blob)
{
    archive_reader out;
    out.blob_ = std::move(blob);

    byte_reader r(out.blob_);
    if (r.u64() != archive_magic) return std::nullopt;
    if (r.u16() != archive_version) return std::nullopt;
    const auto index_offset = r.u64();
    if (r.failed() || index_offset >= out.blob_.size()) return std::nullopt;

    byte_reader idx(std::span<const std::uint8_t>(out.blob_).subspan(index_offset));
    auto attrs = read_attributes(idx);
    if (!attrs) return std::nullopt;
    out.attributes_ = std::move(*attrs);

    const auto n_datasets = idx.u32();
    if (idx.failed()) return std::nullopt;
    for (std::uint32_t d = 0; d < n_datasets; ++d) {
        const auto id = idx.u32();
        dataset_view view;
        view.record_count = idx.u64();
        if (idx.failed()) return std::nullopt; // fail closed before attr parse
        auto ds_attrs = read_attributes(idx);
        if (!ds_attrs) return std::nullopt;
        view.attributes = std::move(*ds_attrs);
        const auto n_chunks = idx.u32();
        if (idx.failed()) return std::nullopt; // huge n_chunks from garbage
        std::uint64_t indexed = 0;
        for (std::uint32_t c = 0; c < n_chunks; ++c) {
            chunk_ref ref;
            ref.offset = idx.u64();
            ref.length = idx.u64();
            ref.records = idx.u32();
            if (idx.failed()) return std::nullopt;
            // overflow-safe span check: offset + length can wrap in u64
            if (ref.length > out.blob_.size()
                || ref.offset > out.blob_.size() - ref.length)
                return std::nullopt;
            if (ref.length < 8) return std::nullopt; // crc + record count minimum
            indexed += ref.records;
            view.chunks.push_back(ref);
        }
        // the index must agree with itself: chunk record counts sum to
        // the dataset's declared record_count
        if (indexed != view.record_count) return std::nullopt;
        out.datasets_[id] = std::move(view);
    }
    if (idx.failed()) return std::nullopt;

    // validate every chunk checksum up front (HDF5's filter check)
    for (const auto& [id, view] : out.datasets_) {
        for (const auto& c : view.chunks) {
            byte_reader cr(
                std::span<const std::uint8_t>(out.blob_).subspan(c.offset, c.length));
            const auto crc = cr.u32();
            const auto body = cr.bytes(c.length - 4);
            if (cr.failed() || crc32c(body) != crc) return std::nullopt;
        }
    }
    return out;
}

std::vector<wire::experiment_id> archive_reader::dataset_ids() const
{
    std::vector<wire::experiment_id> out;
    for (const auto& [id, view] : datasets_) out.push_back(id);
    return out;
}

std::uint64_t archive_reader::record_count(wire::experiment_id experiment) const
{
    auto it = datasets_.find(experiment);
    return it == datasets_.end() ? 0 : it->second.record_count;
}

std::vector<archived_record> archive_reader::parse_chunk(const chunk_ref& c) const
{
    std::vector<archived_record> out;
    byte_reader r(std::span<const std::uint8_t>(blob_).subspan(c.offset, c.length));
    r.skip(4); // crc, validated at open()
    const auto n = r.u32();
    if (r.failed() || n != c.records) return {}; // body disagrees with index
    for (std::uint32_t i = 0; i < n; ++i) {
        archived_record rec;
        rec.sequence = r.u64();
        rec.timestamp_ns = r.u64();
        rec.size_bytes = r.u32();
        const auto payload_len = r.u32();
        const auto payload = r.bytes(payload_len);
        rec.payload.assign(payload.begin(), payload.end());
        if (r.failed()) return {};
        out.push_back(std::move(rec));
    }
    return out;
}

std::vector<archived_record> archive_reader::read_all(wire::experiment_id experiment) const
{
    std::vector<archived_record> out;
    auto it = datasets_.find(experiment);
    if (it == datasets_.end()) return out;
    for (const auto& c : it->second.chunks) {
        auto records = parse_chunk(c);
        out.insert(out.end(), std::make_move_iterator(records.begin()),
                   std::make_move_iterator(records.end()));
    }
    return out;
}

std::optional<archived_record> archive_reader::read_at(wire::experiment_id experiment,
                                                       std::uint64_t index) const
{
    auto it = datasets_.find(experiment);
    if (it == datasets_.end()) return std::nullopt;
    std::uint64_t base = 0;
    for (const auto& c : it->second.chunks) {
        if (index < base + c.records) {
            auto records = parse_chunk(c);
            const auto within = index - base;
            if (within >= records.size()) return std::nullopt;
            return records[within];
        }
        base += c.records;
    }
    return std::nullopt;
}

std::optional<std::string> archive_reader::attribute(const std::string& key) const
{
    auto it = attributes_.find(key);
    if (it == attributes_.end()) return std::nullopt;
    return it->second;
}

std::optional<std::string> archive_reader::dataset_attribute(
    wire::experiment_id experiment, const std::string& key) const
{
    auto it = datasets_.find(experiment);
    if (it == datasets_.end()) return std::nullopt;
    auto kit = it->second.attributes.find(key);
    if (kit == it->second.attributes.end()) return std::nullopt;
    return kit->second;
}

} // namespace mmtp::daq
