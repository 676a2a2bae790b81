#include "runner.hpp"

#include "alloc_hook.hpp"

#include "common/crc32c.hpp"
#include "netsim/link.hpp"
#include "scenario/dsl.hpp"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace e2e {

namespace {

using clock_type = std::chrono::steady_clock;

double process_cpu_s()
{
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// Brackets one phase: always timed (wall and process CPU), recorded as
/// a span when traced. The span opens before the clocks start and closes
/// after they stop, so its bookkeeping stays out of the phase's times
/// and out of the allocation counts taken next to them.
class phase {
public:
    phase(span_log* log, const char* name, int parent, std::uint64_t run_id)
        : log_(log)
    {
        if (log_) index_ = log_->begin(name, parent, run_id);
        t0_ = clock_type::now();
        c0_ = process_cpu_s();
    }
    /// Stops the clocks; returns the phase's {wall, CPU} seconds.
    std::pair<double, double> end()
    {
        const double cpu = process_cpu_s() - c0_;
        const double wall = std::chrono::duration<double>(clock_type::now() - t0_).count();
        if (log_) log_->end(index_);
        return {wall, cpu};
    }
    int index() const { return index_; }

private:
    span_log* log_;
    clock_type::time_point t0_;
    double c0_{0};
    int index_{-1};
};

std::uint32_t update(std::uint32_t state, const std::string& s)
{
    return mmtp::crc32c_update(
        state, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::string strip_labels(const std::string& key)
{
    return key.substr(0, key.find('{'));
}

void add_counts(execution& ex, const mmtp::telemetry::metrics_registry& reg)
{
    for (const auto& row : reg.snapshot()) {
        if (row.field != "value") continue;
        const std::string base = strip_labels(row.metric);
        ex.counts[base] += row.value;
        const auto open = row.metric.find('{');
        if (open == std::string::npos) continue;
        // One entry per label: "name|k=v".
        std::string labels = row.metric.substr(open + 1);
        if (!labels.empty() && labels.back() == '}') labels.pop_back();
        std::istringstream in(labels);
        std::string kv;
        while (std::getline(in, kv, ',')) ex.counts[base + "|" + kv] += row.value;
    }
}

/// The simulated recovery times the drills report (chaos, overload and
/// soak rows `time_to_recover_ns` / `time_to_recover2_ns`).
double sim_recover_ns(const std::string& report_csv)
{
    std::istringstream in(report_csv);
    std::string line;
    double total = 0;
    while (std::getline(in, line))
        for (const char* row : {"time_to_recover_ns,", "time_to_recover2_ns,"})
            if (line.rfind(row, 0) == 0)
                total += std::strtod(line.c_str() + std::char_traits<char>::length(row), nullptr);
    return total;
}

void check_links(execution& ex, mmtp::netsim::network& net)
{
    const auto& nodes = net.nodes();
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        const auto& node = *nodes[ni];
        for (unsigned p = 0; p < node.port_count(); ++p) {
            const auto& ls = node.egress(p).stats();
            const auto& qs = node.egress(p).queue_statistics();
            ex.link_tx_packets += ls.tx_packets;
            ex.link_drops +=
                ls.dropped_random + ls.dropped_oversize + ls.dropped_down + qs.dropped;
            ex.link_corrupted += ls.corrupted;
            ex.queue_enqueued += qs.enqueued;
            ex.queue_shed += qs.shed;
            if (ls.tx_packets + ls.dropped_random != qs.dequeued)
                ex.violations.push_back(
                    "link reconciliation broken at node " + std::to_string(ni) + " port "
                    + std::to_string(p) + ": tx " + std::to_string(ls.tx_packets)
                    + " + random_drops " + std::to_string(ls.dropped_random)
                    + " != dequeued " + std::to_string(qs.dequeued));
        }
    }
}

} // namespace

std::uint32_t telemetry_digest(const std::string& report_csv,
                               const std::string& metrics_csv)
{
    std::uint32_t state = update(mmtp::crc32c_init(), report_csv);
    std::istringstream in(metrics_csv);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("engine_", 0) == 0 || line.rfind("shard_", 0) == 0) continue;
        state = update(state, line);
        state = update(state, "\n");
    }
    return mmtp::crc32c_finish(state);
}

execution execute(const input& in, span_log* log, std::uint64_t run_id)
{
    namespace sc = mmtp::scenario;
    execution ex;
    ex.label = in.label;

    phase root(log, "scenario", -1, run_id);

    phase parse(log, "scenario.parse", root.index(), run_id);
    sc::parse_outcome parsed = sc::parse_scenario(in.text);
    std::tie(ex.wall.parse_s, ex.cpu.parse_s) = parse.end();
    if (!parsed)
        throw std::runtime_error(in.label + ": " + parsed.error.to_string());
    ex.topology = parsed.spec->topology;
    ex.lossy = parsed.spec->lossy;
    ex.shards = parsed.spec->shards();

    phase build(log, "scenario.build", root.index(), run_id);
    const std::uint64_t a0 = allocations();
    sc::dsl_driver d(std::move(*parsed.spec));
    d.prepare();
    ex.allocs_build = allocations() - a0;
    std::tie(ex.wall.build_s, ex.cpu.build_s) = build.end();

    phase run(log, "netsim.run", root.index(), run_id);
    const std::uint64_t a1 = allocations();
    d.context().run();
    ex.allocs_run = allocations() - a1;
    std::tie(ex.wall.run_s, ex.cpu.run_s) = run.end();

    phase report(log, "telemetry.report", root.index(), run_id);
    mmtp::telemetry::metrics_registry reg;
    const std::string report_csv = d.report(reg).csv();
    const std::string metrics_csv = reg.to_csv();
    std::tie(ex.wall.report_s, ex.cpu.report_s) = report.end();
    root.end();

    // --- checks and accounting, outside the scenario span ---
    auto& coord = d.context().coordinator();
    for (unsigned i = 0; i < coord.shard_count(); ++i) {
        const auto& prof = coord.shard(i).profile();
        ex.dispatch_s += prof.wall_seconds;
        ex.timers_cancelled += prof.timers_cancelled;
        for (std::size_t c = 0; c < ex.events_by_class.size(); ++c)
            ex.events_by_class[c] += prof.executed_by_class[c];
    }
    ex.events = coord.executed(); // engine events; excludes between-epoch control tasks
    ex.critical_path_s =
        coord.multi() ? coord.scaling().critical_path_seconds : ex.dispatch_s;
    ex.serial_s = coord.multi() ? coord.scaling().serial_seconds : ex.dispatch_s;
    ex.epochs = coord.scaling().epochs;
    ex.cross_messages = coord.scaling().cross_shard_messages;

    const auto acc = d.accept();
    if (ex.topology == "today") {
        // The status-quo pipeline accounts in bytes; count whole messages.
        const std::uint64_t bytes = d.spec().today.message_bytes;
        ex.expected = d.spec().today.messages;
        ex.delivered = bytes == 0 ? 0 : acc.delivered / bytes;
    } else {
        ex.expected = acc.expected;
        ex.delivered = acc.delivered;
    }
    ex.duplicates = acc.duplicates;
    ex.given_up = acc.given_up;
    ex.outstanding_gaps = acc.outstanding_gaps;
    if (!ex.lossy && ex.delivered < ex.expected) ex.lost = ex.expected - ex.delivered;

    if (!ex.lossy && !acc.whole)
        ex.violations.push_back(
            "not whole: delivered " + std::to_string(acc.delivered) + " of "
            + std::to_string(acc.expected) + ", given up " + std::to_string(acc.given_up)
            + ", outstanding gaps " + std::to_string(acc.outstanding_gaps));
    if (acc.duplicates != 0)
        ex.violations.push_back("duplicates delivered: " + std::to_string(acc.duplicates));
    check_links(ex, d.network());

    ex.digest = telemetry_digest(report_csv, metrics_csv);
    add_counts(ex, reg);
    ex.sim_recover_ns = sim_recover_ns(report_csv);
    return ex;
}

} // namespace e2e
