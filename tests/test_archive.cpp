// Tests for the HDF5-style archival container (§6 challenge 2):
// round-trips, chunking, checksum validation, attributes, random access,
// and an end-to-end transcode of received MMTP datagrams.
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "daq/archive.hpp"
#include "daq/trigger.hpp"
#include "daq/wib.hpp"

#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::daq;

namespace {

archived_record make_record(std::uint64_t seq, std::size_t payload_len = 32)
{
    archived_record r;
    r.sequence = seq;
    r.timestamp_ns = seq * 1000;
    r.size_bytes = static_cast<std::uint32_t>(payload_len + 100);
    r.payload.resize(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i)
        r.payload[i] = static_cast<std::uint8_t>(seq + i);
    return r;
}

} // namespace

TEST(archive, empty_round_trip)
{
    archive_writer w;
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->dataset_ids().empty());
}

TEST(archive, single_dataset_round_trip)
{
    archive_writer w;
    const auto exp = wire::make_experiment_id(wire::experiments::dune, 1);
    std::vector<archived_record> originals;
    for (std::uint64_t i = 0; i < 100; ++i) {
        originals.push_back(make_record(i));
        w.append(exp, originals.back());
    }
    EXPECT_EQ(w.records_written(), 100u);
    const auto blob = w.finalize();

    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->dataset_ids().size(), 1u);
    EXPECT_EQ(r->record_count(exp), 100u);
    const auto records = r->read_all(exp);
    ASSERT_EQ(records.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(records[i], originals[i]) << i;
}

TEST(archive, chunking_respects_limits)
{
    archive_limits limits;
    limits.chunk_records = 16;
    archive_writer w(limits);
    const auto exp = wire::make_experiment_id(1, 0);
    for (std::uint64_t i = 0; i < 50; ++i) w.append(exp, make_record(i));
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    // 50 records over chunks of 16 => order preserved across chunk seams
    const auto records = r->read_all(exp);
    ASSERT_EQ(records.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(records[i].sequence, i);
}

TEST(archive, multiple_datasets_are_isolated)
{
    archive_writer w;
    const auto a = wire::make_experiment_id(1, 0);
    const auto b = wire::make_experiment_id(2, 0);
    for (std::uint64_t i = 0; i < 10; ++i) w.append(a, make_record(i));
    for (std::uint64_t i = 100; i < 105; ++i) w.append(b, make_record(i));
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->record_count(a), 10u);
    EXPECT_EQ(r->record_count(b), 5u);
    EXPECT_EQ(r->read_all(b).front().sequence, 100u);
    EXPECT_EQ(r->record_count(wire::make_experiment_id(3, 0)), 0u);
}

TEST(archive, attributes_round_trip)
{
    archive_writer w;
    const auto exp = wire::make_experiment_id(wire::experiments::iceberg, 0);
    w.set_attribute("facility", "dune-far-site");
    w.set_attribute("schema", "trigger-records-v1");
    w.append(exp, make_record(0));
    w.set_dataset_attribute(exp, "detector", "iceberg-lartpc");
    const auto blob = w.finalize();

    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->attribute("facility").value_or(""), "dune-far-site");
    EXPECT_EQ(r->attribute("schema").value_or(""), "trigger-records-v1");
    EXPECT_FALSE(r->attribute("missing").has_value());
    EXPECT_EQ(r->dataset_attribute(exp, "detector").value_or(""), "iceberg-lartpc");
    EXPECT_FALSE(r->dataset_attribute(exp, "missing").has_value());
}

TEST(archive, random_access_by_index)
{
    archive_limits limits;
    limits.chunk_records = 8;
    archive_writer w(limits);
    const auto exp = wire::make_experiment_id(1, 0);
    for (std::uint64_t i = 0; i < 30; ++i) w.append(exp, make_record(i));
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    for (std::uint64_t i : {0ull, 7ull, 8ull, 15ull, 29ull}) {
        const auto rec = r->read_at(exp, i);
        ASSERT_TRUE(rec.has_value()) << i;
        EXPECT_EQ(rec->sequence, i);
    }
    EXPECT_FALSE(r->read_at(exp, 30).has_value());
    EXPECT_FALSE(r->read_at(wire::make_experiment_id(9, 0), 0).has_value());
}

TEST(archive, corruption_detected_at_open)
{
    archive_writer w;
    const auto exp = wire::make_experiment_id(1, 0);
    for (std::uint64_t i = 0; i < 20; ++i) w.append(exp, make_record(i));
    auto blob = w.finalize();

    // flip one payload byte inside the chunk area
    auto corrupted = blob;
    corrupted[40] ^= 0x01;
    EXPECT_FALSE(archive_reader::open(corrupted).has_value());

    // truncation
    auto truncated = blob;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(archive_reader::open(truncated).has_value());

    // wrong magic
    auto wrong = blob;
    wrong[0] ^= 0xff;
    EXPECT_FALSE(archive_reader::open(wrong).has_value());

    // pristine blob still opens
    EXPECT_TRUE(archive_reader::open(blob).has_value());
}

TEST(archive_limits, oversize_records_are_rejected_and_counted)
{
    archive_limits limits;
    limits.max_record_bytes = 100;
    archive_writer w(limits);
    const auto exp = wire::make_experiment_id(1, 0);

    EXPECT_TRUE(w.append(exp, make_record(0, 100))); // boundary: accepted
    EXPECT_FALSE(w.append(exp, make_record(1, 101)));
    EXPECT_FALSE(w.append(exp, make_record(2, 4096)));
    EXPECT_EQ(w.stats().appended, 1u);
    EXPECT_EQ(w.stats().rejected_oversize, 2u);
    EXPECT_EQ(w.records_written(), 1u);

    // The writer stays usable and the blob holds only the accepted record.
    EXPECT_TRUE(w.append(exp, make_record(3, 50)));
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->record_count(exp), 2u);
}

TEST(archive_limits, chunk_cap_bounds_each_dataset)
{
    archive_limits limits;
    limits.chunk_records = 4;
    limits.max_chunks_per_dataset = 2; // 8 records max per dataset
    archive_writer w(limits);
    const auto a = wire::make_experiment_id(1, 0);
    const auto b = wire::make_experiment_id(2, 0);

    for (std::uint64_t i = 0; i < 8; ++i) EXPECT_TRUE(w.append(a, make_record(i)));
    EXPECT_FALSE(w.append(a, make_record(8))); // dataset a is full
    EXPECT_FALSE(w.append(a, make_record(9)));
    EXPECT_EQ(w.stats().rejected_chunk_cap, 2u);

    // Another dataset has its own budget.
    EXPECT_TRUE(w.append(b, make_record(0)));

    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->record_count(a), 8u);
    EXPECT_EQ(r->record_count(b), 1u);
    const auto records = r->read_all(a);
    ASSERT_EQ(records.size(), 8u);
    EXPECT_EQ(records.back().sequence, 7u); // the overflow never landed
}

TEST(archive_limits, dataset_cap_bounds_dataset_creation)
{
    archive_limits limits;
    limits.max_datasets = 2;
    archive_writer w(limits);
    const auto a = wire::make_experiment_id(1, 0);
    const auto b = wire::make_experiment_id(2, 0);
    const auto c = wire::make_experiment_id(3, 0);

    EXPECT_TRUE(w.append(a, make_record(0)));
    EXPECT_TRUE(w.append(b, make_record(0)));
    EXPECT_FALSE(w.append(c, make_record(0))); // would create a third
    EXPECT_EQ(w.stats().rejected_dataset_cap, 1u);
    // Existing datasets still accept.
    EXPECT_TRUE(w.append(a, make_record(1)));

    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->dataset_ids().size(), 2u);
    EXPECT_EQ(r->record_count(c), 0u);
}

TEST(archive_limits, append_accounting_identities_hold)
{
    archive_limits limits;
    limits.chunk_records = 4;
    limits.max_record_bytes = 64;
    limits.max_chunks_per_dataset = 3;
    archive_writer w(limits);
    const auto exp = wire::make_experiment_id(1, 0);

    std::uint64_t accepted = 0;
    for (std::uint64_t i = 0; i < 20; ++i)
        if (w.append(exp, make_record(i, i % 5 == 0 ? 80 : 16))) accepted++;

    const auto& s = w.stats();
    EXPECT_EQ(s.appended, accepted);
    EXPECT_EQ(s.appended, w.records_written());
    EXPECT_EQ(s.appended, w.sealed_records() + w.open_records());
    EXPECT_GT(s.rejected_oversize, 0u);
    EXPECT_GT(s.rejected_chunk_cap, 0u);
    EXPECT_EQ(s.appended + s.rejected_oversize + s.rejected_chunk_cap
                  + s.rejected_dataset_cap,
              20u);

    // Sealing is observable: every full chunk was counted as it sealed,
    // and finalize seals the remainder.
    EXPECT_EQ(s.chunks_sealed, w.sealed_records() / limits.chunk_records);
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->record_count(exp), accepted);
}

TEST(archive, transcodes_materialized_wib_frames_losslessly)
{
    // end-to-end shape of §6 (2): detector frames -> messages -> archive
    // -> reader -> frames, with every CRC intact.
    iceberg_stream::config cfg;
    cfg.frames_per_record = 3;
    cfg.record_limit = 5;
    cfg.materialize_frames = true;
    iceberg_stream src(rng(99), cfg);

    archive_writer w;
    const auto exp = wire::make_experiment_id(wire::experiments::iceberg, 0);
    while (auto tm = src.next()) {
        archived_record rec;
        rec.sequence = tm->msg.sequence;
        rec.timestamp_ns = tm->msg.timestamp_ns;
        rec.size_bytes = tm->msg.size_bytes;
        rec.payload = tm->msg.inline_payload;
        w.append(exp, std::move(rec));
    }
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    const auto records = r->read_all(exp);
    ASSERT_EQ(records.size(), 5u);
    for (const auto& rec : records) {
        // the shared DAQ header parses, and each WIB frame CRC-checks
        const auto dh = daq_header::parse(rec.payload);
        ASSERT_TRUE(dh.has_value());
        for (int f = 0; f < 3; ++f) {
            const auto frame =
                wib_frame::parse(std::span<const std::uint8_t>(rec.payload)
                                     .subspan(daq_header::wire_bytes + f * wib_frame_bytes,
                                              wib_frame_bytes));
            ASSERT_TRUE(frame.has_value());
        }
    }
}

TEST(archive, large_payload_stress)
{
    rng r(7);
    archive_limits limits;
    limits.chunk_records = 32;
    archive_writer w(limits);
    const auto exp = wire::make_experiment_id(1, 0);
    std::vector<std::uint32_t> sizes;
    for (std::uint64_t i = 0; i < 500; ++i) {
        const auto len = r.uniform_int(0, 4096);
        sizes.push_back(static_cast<std::uint32_t>(len));
        w.append(exp, make_record(i, len));
    }
    const auto blob = w.finalize();
    const auto reader = archive_reader::open(blob);
    ASSERT_TRUE(reader.has_value());
    const auto records = reader->read_all(exp);
    ASSERT_EQ(records.size(), 500u);
    for (std::uint64_t i = 0; i < 500; ++i)
        EXPECT_EQ(records[i].payload.size(), sizes[i]) << i;
}

// Byte-identity pin: an archive built from seeded random records —
// several datasets, payloads of 0..300 bytes, limit rejections, early
// seals, a discarded tail and attributes — must keep this exact blob
// (CRC-32C and length) however the writer lays out its open chunks.
TEST(archive, seeded_random_blob_matches_pin)
{
    rng r(2024);
    archive_limits limits;
    limits.chunk_records = 7;
    limits.max_record_bytes = 280;
    limits.max_chunks_per_dataset = 40;
    limits.max_datasets = 5;
    archive_writer w(limits);
    w.set_attribute("facility", "pin");
    std::uint64_t seq = 0;
    for (int op = 0; op < 1500; ++op) {
        const auto exp = wire::make_experiment_id(
            static_cast<std::uint32_t>(r.uniform_int(1, 6)),
            static_cast<std::uint32_t>(r.uniform_int(0, 2)));
        const double pick = r.uniform();
        if (pick < 0.94) {
            archived_record rec;
            rec.sequence = seq++;
            rec.timestamp_ns = r.next();
            rec.size_bytes = static_cast<std::uint32_t>(r.uniform_int(0, 1u << 20));
            rec.payload.resize(r.uniform_int(0, 300));
            for (auto& b : rec.payload) b = static_cast<std::uint8_t>(r.next());
            w.append(exp, std::move(rec));
        } else if (pick < 0.97) {
            w.seal_open_chunks();
        } else if (pick < 0.98) {
            w.discard_open_chunks();
        } else {
            w.set_dataset_attribute(exp, "op", std::to_string(op));
        }
    }
    const auto st = w.stats();
    EXPECT_GT(st.rejected_oversize, 0u);
    EXPECT_GT(st.rejected_dataset_cap, 0u);
    const auto blob = w.finalize();
    ASSERT_TRUE(archive_reader::open(blob).has_value());
    EXPECT_EQ(blob.size(), 146045u);
    EXPECT_EQ(crc32c(blob), 0xf1a068e3u);
}
