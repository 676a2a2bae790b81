#include "netsim/shard.hpp"

#include "common/trace.hpp"
#include "netsim/node.hpp"

#include <algorithm>
#include <limits>

namespace mmtp::netsim {

// --- shard_coordinator ---------------------------------------------------

shard_coordinator::shard_coordinator(unsigned shards)
{
    if (shards == 0) shards = 1;
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) shards_.push_back(std::make_unique<engine>());
    mailboxes_.resize(static_cast<std::size_t>(shards) * shards);
    recorders_.assign(shards, nullptr);
}

engine& shard_coordinator::control_plane()
{
    if (!multi()) return *shards_[0];
    return ctl_;
}

void shard_coordinator::note_cut_link(sim_duration propagation)
{
    if (propagation.ns <= 0) return; // network rejects these before us
    if (!have_cut_ || propagation < lookahead_) lookahead_ = propagation;
    have_cut_ = true;
}

void shard_coordinator::post_arrival(unsigned from, unsigned to, sim_time at,
                                     packet&& p, node& dst, unsigned ingress_port)
{
    mailbox& mb = mailboxes_[static_cast<std::size_t>(from) * shard_count() + to];
    mb.box.push_back(mail{at, from, mb.next_seq++, &dst, ingress_port, std::move(p)});
}

void shard_coordinator::set_recorder(unsigned i, trace::flight_recorder* rec)
{
    recorders_[i] = rec;
}

std::uint64_t shard_coordinator::deliver_mail()
{
    const unsigned n = shard_count();
    std::uint64_t delivered = 0;
    for (unsigned d = 0; d < n; ++d) {
        staged_.clear();
        for (unsigned s = 0; s < n; ++s) {
            auto& box = mailboxes_[static_cast<std::size_t>(s) * n + d].box;
            for (auto& m : box) staged_.push_back(std::move(m));
            box.clear();
        }
        if (staged_.empty()) continue;
        // Deterministic merge: arrival time, then source shard, then the
        // source mailbox's own monotonic seq, so the destination engine's
        // sequence numbers (and everything downstream) do not depend on
        // the order the shards ran in.
        std::sort(staged_.begin(), staged_.end(), [](const mail& a, const mail& b) {
            if (a.at != b.at) return a.at < b.at;
            if (a.src != b.src) return a.src < b.src;
            return a.seq < b.seq;
        });
        engine& e = *shards_[d];
        for (auto& m : staged_) {
            auto arrival = [dst = m.dst, port = m.port, pkt = std::move(m.pkt)]() mutable {
                pkt.hops++;
                dst->deliver(std::move(pkt), port);
            };
            static_assert(inline_task::stored_inline<decltype(arrival)>,
                          "cross-shard arrival closure must not heap-allocate");
            e.schedule_at(m.at, task_class::link_arrival, std::move(arrival));
            ++delivered;
        }
    }
    scaling_.cross_shard_messages += delivered;
    return delivered;
}

std::uint64_t shard_coordinator::run_epoch(sim_time until)
{
    trace::flight_recorder* saved = trace::recorder();
    std::uint64_t executed = 0;
    double slowest = 0.0;
    for (unsigned i = 0; i < shard_count(); ++i) {
        engine& e = *shards_[i];
        trace::install(recorders_[i]);
        const double wall0 = e.profile().wall_seconds;
        executed += e.run_until(until);
        const double wall = e.profile().wall_seconds - wall0;
        scaling_.serial_seconds += wall;
        slowest = std::max(slowest, wall);
    }
    trace::install(saved);
    scaling_.critical_path_seconds += slowest;
    return executed;
}

std::uint64_t shard_coordinator::run()
{
    if (!multi()) return shards_[0]->run();

    // Shard 0 inherits the caller's recorder unless one was set
    // explicitly, mirroring the single-shard tracing contract.
    if (recorders_[0] == nullptr) recorders_[0] = trace::recorder();

    constexpr sim_time horizon{std::numeric_limits<std::int64_t>::max()};
    std::uint64_t executed = 0;
    for (;;) {
        deliver_mail();
        sim_time tmin{};
        bool have = false;
        for (auto& sh : shards_) {
            sim_time a;
            if (sh->next_event_at(a) && (!have || a < tmin)) {
                tmin = a;
                have = true;
            }
        }
        sim_time tctl{};
        const bool have_ctl = ctl_.next_event_at(tctl);
        if (!have && !have_ctl) break;
        // Control-plane tasks due no later than the next engine event run
        // first, at the barrier, with every shard quiescent beyond them.
        // Stepped rather than run_until(): that would move the control
        // plane's now() on to the limit instead of the last task's time.
        if (have_ctl && (!have || tctl <= tmin)) {
            const sim_time limit = have ? tmin : tctl;
            sim_time at;
            while (ctl_.next_event_at(at) && at <= limit) {
                ctl_.step();
                ++executed;
            }
            continue;
        }
        sim_time until = horizon; // no cut links: one epoch drains all
        if (have_cut_ && horizon.ns - lookahead_.ns > tmin.ns)
            until = sim_time{tmin.ns + lookahead_.ns - 1}; // [T_min, T_min+L)
        executed += run_epoch(until);
        scaling_.epochs++;
    }
    return executed;
}

std::uint64_t shard_coordinator::executed() const
{
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->profile().executed;
    return n;
}

} // namespace mmtp::netsim
