#include "probes.hpp"

#include "stats.hpp"

#include "dtn/buffer.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/stack.hpp"
#include "netsim/engine.hpp"
#include "netsim/host.hpp"
#include "netsim/network.hpp"
#include "pnet/element.hpp"
#include "pnet/stages.hpp"
#include "scenario/dsl.hpp"
#include "wire/build.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace e2e {

namespace {

using clock_type = std::chrono::steady_clock;
namespace wire = mmtp::wire;
namespace netsim = mmtp::netsim;

/// Repeats `batch` for `seconds` (at least three times); `batch` returns
/// {timed nanoseconds, operations}. Returns the median ns per operation.
template <class F>
double per_op_ns(double seconds, F&& batch)
{
    std::vector<double> samples;
    const auto end = clock_type::now() + std::chrono::duration<double>(seconds);
    do {
        const auto [ns, ops] = batch();
        samples.push_back(ns / static_cast<double>(ops));
    } while (clock_type::now() < end || samples.size() < 3);
    return median(std::move(samples));
}

double ns_since(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::nano>(clock_type::now() - t0).count();
}

/// The data header every probe sends: sequenced, with a retransmission
/// buffer and a source timestamp, as the scenarios' data plane carries.
wire::header data_header(std::uint32_t stream, std::uint64_t seq, wire::ipv4_addr buffer)
{
    wire::header h;
    h.experiment = wire::make_experiment_id(1, stream);
    h.m.set(wire::feature::sequencing)
        .set(wire::feature::retransmission)
        .set(wire::feature::timestamped);
    h.sequencing = wire::sequencing_field{seq, 0};
    h.retransmission = wire::retransmission_field{buffer};
    h.timestamp_ns = seq * 1000;
    return h;
}

/// Deterministic loss pattern: drop roughly `loss` of the sequence space.
bool dropped(std::uint64_t seq, double loss)
{
    if (loss <= 0) return false;
    std::uint64_t z = seq * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 31)) * 0xbf58476d1ce4e5b9ull;
    return static_cast<double>(z >> 11) * 0x1.0p-53 < loss;
}

constexpr std::size_t batch_ops = 4096;

/// Keeps the parse probe's results observable so the loop stays.
volatile std::uint64_t parse_sink = 0;

double probe_wire_serialize(double seconds)
{
    std::vector<wire::header> hs;
    for (std::size_t i = 0; i < batch_ops; ++i) hs.push_back(data_header(0, i, 1));
    return per_op_ns(seconds, [&] {
        mmtp::byte_writer w(batch_ops * wire::max_header_size);
        const auto t0 = clock_type::now();
        for (const auto& h : hs) wire::serialize(h, w);
        return std::pair{ns_since(t0), batch_ops};
    });
}

double probe_wire_parse(double seconds)
{
    mmtp::byte_writer w;
    wire::serialize(data_header(0, 1, 1), w);
    const auto bytes = w.view();
    return per_op_ns(seconds, [&] {
        std::uint64_t sink = 0;
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < batch_ops; ++i) {
            const auto h = wire::parse(bytes);
            sink += h ? h->experiment : 0;
        }
        const double ns = ns_since(t0);
        parse_sink = sink;
        return std::pair{ns, batch_ops};
    });
}

double probe_engine(double seconds)
{
    netsim::engine eng;
    std::uint64_t fired = 0;
    return per_op_ns(seconds, [&] {
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < batch_ops; ++i)
            eng.schedule_in(mmtp::sim_duration{static_cast<std::int64_t>(i % 64)},
                            [&fired] { ++fired; });
        eng.run();
        return std::pair{ns_since(t0), batch_ops};
    });
}

/// DTN buffer at the workload's steady-state window: each store evicts
/// one datagram once the window is full; each fetch hits a datagram
/// inside the window.
std::pair<double, double> probe_dtn(const probe_shape& sh, double seconds)
{
    mmtp::dtn::buffer_config cfg;
    // Retention expressed in stores: one nanosecond of sim time each.
    cfg.retention = mmtp::sim_duration{static_cast<std::int64_t>(sh.window)};
    mmtp::dtn::retransmission_buffer buf(cfg);
    std::uint64_t clock = 0;
    const std::uint32_t streams = std::max<std::uint32_t>(1, sh.streams);
    const auto store_one = [&] {
        mmtp::dtn::buffered_datagram d;
        d.experiment = wire::make_experiment_id(1, static_cast<std::uint32_t>(clock % streams));
        d.sequence = clock / streams;
        d.timestamp_ns = clock;
        d.size_bytes = sh.message_bytes;
        ++clock;
        buf.store(std::move(d), mmtp::sim_time{static_cast<std::int64_t>(clock)});
    };
    for (std::uint64_t i = 0; i < sh.window; ++i) store_one();

    const double store_ns = per_op_ns(seconds / 2, [&] {
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < batch_ops; ++i) store_one();
        return std::pair{ns_since(t0), batch_ops};
    });
    std::uint64_t probe = 0;
    const double lookup_ns = per_op_ns(seconds / 2, [&] {
        const std::uint64_t live = std::min<std::uint64_t>(sh.window, clock) / 2 + 1;
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < batch_ops; ++i) {
            const std::uint64_t k = clock - 1 - (probe++ * 7919) % live;
            (void)buf.fetch(wire::make_experiment_id(1, static_cast<std::uint32_t>(k % streams)),
                            0, k / streams,
                            mmtp::sim_time{static_cast<std::int64_t>(clock)});
        }
        return std::pair{ns_since(t0), batch_ops};
    });
    return {store_ns, lookup_ns};
}

/// Host ingress through the MMTP stack into a receiver: in order when
/// the shape has no loss, with the shape's loss share missing otherwise
/// (the receiver then tracks gaps and arms NAK timers).
double probe_receiver(const probe_shape& sh, double seconds)
{
    netsim::network net(7);
    auto& a = net.add_host("a");
    auto& b = net.add_host("b");
    net.connect(a, b, netsim::link_config{});
    net.compute_routes();
    mmtp::core::stack sa(a, net.ids());
    mmtp::core::stack sb(b, net.ids());
    mmtp::core::receiver rx(sb);
    const std::uint32_t streams = std::max<std::uint32_t>(1, sh.streams);
    std::uint64_t next = 0;
    std::vector<netsim::packet> pkts;
    pkts.reserve(batch_ops);
    return per_op_ns(seconds, [&] {
        pkts.clear();
        while (pkts.size() < batch_ops) {
            const std::uint64_t n = next++;
            if (dropped(n, sh.loss)) continue;
            netsim::packet p;
            p.headers = wire::build_mmtp_over_ipv4(
                a.mac(), a.address(), b.address(),
                data_header(static_cast<std::uint32_t>(n % streams), n / streams, a.address()),
                sh.message_bytes);
            p.virtual_payload = sh.message_bytes;
            pkts.push_back(std::move(p));
        }
        const auto t0 = clock_type::now();
        for (auto& p : pkts) b.receive(std::move(p), 0);
        const double ns = ns_since(t0);
        net.sim().run(); // gap checks and NAKs, untimed
        return std::pair{ns, batch_ops};
    });
}

/// One programmable switch between two hosts running the scenarios'
/// data-plane pipeline (in-network sequencing + age update).
double probe_element(const probe_shape& sh, double seconds)
{
    netsim::network net(11);
    auto& a = net.add_host("a");
    auto& sw = net.emplace<mmtp::pnet::programmable_switch>("sw");
    auto& b = net.add_host("b");
    const auto [a_port, sw_in] = net.connect(a, sw, netsim::link_config{});
    net.connect(sw, b, netsim::link_config{});
    (void)a_port;
    net.compute_routes();
    mmtp::core::stack sb(b, net.ids());
    auto seq = std::make_shared<mmtp::pnet::mode_transition_stage>();
    mmtp::pnet::mode_rule rule;
    rule.match_any_experiment = true;
    rule.set_bits = wire::feature_bit(wire::feature::sequencing);
    seq->add_rule(rule);
    sw.add_stage(seq);
    sw.add_stage(std::make_shared<mmtp::pnet::age_update_stage>());

    const std::uint32_t streams = std::max<std::uint32_t>(1, sh.streams);
    std::uint64_t next = 0;
    std::vector<netsim::packet> pkts;
    pkts.reserve(batch_ops);
    return per_op_ns(seconds, [&] {
        pkts.clear();
        for (std::size_t i = 0; i < batch_ops; ++i) {
            const std::uint64_t n = next++;
            wire::header h;
            h.experiment = wire::make_experiment_id(1, static_cast<std::uint32_t>(n % streams));
            netsim::packet p;
            p.headers = wire::build_mmtp_over_ipv4(a.mac(), a.address(), b.address(), h,
                                                   sh.message_bytes);
            p.virtual_payload = sh.message_bytes;
            p.id = n + 1;
            pkts.push_back(std::move(p));
        }
        const auto t0 = clock_type::now();
        for (auto& p : pkts) sw.receive(std::move(p), sw_in);
        const double ns = ns_since(t0);
        net.sim().run(); // egress serialisation and delivery, untimed
        return std::pair{ns, batch_ops};
    });
}

} // namespace

probe_shape shape_of(const mmtp::scenario::scenario_spec& spec)
{
    probe_shape sh;
    const auto window_of = [](std::int64_t retention_ns, std::int64_t interval_ns,
                              std::uint64_t messages) {
        const std::uint64_t w = interval_ns > 0
            ? static_cast<std::uint64_t>(retention_ns / interval_ns)
            : messages;
        return std::max<std::uint64_t>(1, std::min(w, messages));
    };
    if (spec.topology == "soak") {
        const auto& c = spec.soak;
        unsigned experiments = 0;
        for (unsigned i = 0; i < 5; ++i) experiments += (c.experiment_mask >> i) & 1u;
        sh.message_bytes = c.message_bytes;
        sh.streams = std::max(1u, experiments * c.slices_per_experiment);
        const std::uint64_t messages = std::uint64_t(sh.streams) * c.messages_per_stream;
        sh.window = window_of(c.dtn1_retention.ns, c.message_interval.ns / sh.streams,
                              messages);
    } else if (spec.topology == "pilot") {
        const auto& o = spec.pilot;
        // One ICEBERG stream; the pilot's DTN keeps the whole run.
        sh.message_bytes = 5344;
        sh.window = o.records;
        sh.loss = o.pilot.wan_loss;
    } else if (spec.topology == "chaos") {
        sh.message_bytes = spec.chaos.message_bytes;
        sh.window = spec.chaos.messages;
    } else if (spec.topology == "overload") {
        const auto& c = spec.overload;
        sh.message_bytes = c.message_bytes;
        sh.window = window_of(c.buffer_retention.ns, c.message_interval.ns, c.messages);
    } else if (spec.topology == "shapeshift") {
        sh.message_bytes = spec.shapeshift.message_bytes;
        sh.window = spec.shapeshift.messages;
    } else if (spec.topology == "today") {
        sh.message_bytes = spec.today.message_bytes;
        sh.window = spec.today.messages;
        sh.loss = spec.today.today.wan_loss;
    }
    return sh;
}

probe_result run_probes(const probe_shape& shape, double budget_s)
{
    const double each = budget_s / 6;
    probe_result r;
    r.wire_parse_ns = probe_wire_parse(each / 2);
    r.wire_serialize_ns = probe_wire_serialize(each / 2);
    r.event_ns = probe_engine(each);
    const auto [store_ns, lookup_ns] = probe_dtn(shape, 2 * each);
    r.store_ns = store_ns;
    r.lookup_ns = lookup_ns;
    r.receive_ns = probe_receiver(shape, each);
    r.element_ns = probe_element(shape, each);
    return r;
}

} // namespace e2e
