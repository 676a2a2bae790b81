#include "netsim/shard.hpp"

#include "common/trace.hpp"
#include "netsim/node.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <ctime>
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
    tallies_.assign(shards, epoch_tally{});

    // Threads buy wall-clock only with real cores; the epoch algorithm
    // and its output are identical either way, so default them off on
    // single-core hosts (and let MMTP_SHARD_THREADS force either mode —
    // the TSan job forces 1 to exercise the rendezvous under contention).
    threads_on_ = std::thread::hardware_concurrency() > 1;
    if (const char* env = std::getenv("MMTP_SHARD_THREADS")) {
        if (std::strcmp(env, "0") == 0) threads_on_ = false;
        if (std::strcmp(env, "1") == 0) threads_on_ = true;
    }
}

shard_coordinator::~shard_coordinator() { stop_workers(); }

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
        // source mailbox's own monotonic seq — thread interleaving can
        // never reorder insertion, so the destination engine's sequence
        // numbers (and everything downstream) are reproducible.
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

namespace {
/// CPU time the calling thread has used. Unlike wall time it stops while
/// the thread is descheduled, so per-shard epoch costs stay honest when
/// worker threads outnumber free cores.
double thread_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
} // namespace

shard_coordinator::epoch_tally shard_coordinator::run_shard(unsigned i, sim_time until,
                                                            double& cpu_mark)
{
    engine& e = *shards_[i];
    const double wall0 = e.profile().wall_seconds;
    const std::uint64_t n = e.run_until(until);
    // One clock read per shard per epoch: the thread CPU clock is a
    // system call, and a second read before run_until() showed up in
    // end-to-end sharded runs.
    const double cpu = thread_cpu_seconds();
    const epoch_tally t{n, e.profile().wall_seconds - wall0, cpu - cpu_mark};
    cpu_mark = cpu;
    return t;
}

std::uint64_t shard_coordinator::run_epoch(sim_time until)
{
    const unsigned n = shard_count();
    if (threads_on_) {
        if (workers_.empty()) start_workers();
        std::unique_lock<std::mutex> lk(mu_);
        epoch_target_ = until;
        done_count_ = 0;
        epoch_gen_++;
        cv_go_.notify_all();
        cv_done_.wait(lk, [&] { return done_count_ == n; });
    } else {
        trace::flight_recorder* saved = trace::recorder();
        double cpu_mark = thread_cpu_seconds();
        for (unsigned i = 0; i < n; ++i) {
            trace::install(recorders_[i]);
            tallies_[i] = run_shard(i, until, cpu_mark);
        }
        trace::install(saved);
    }
    std::uint64_t executed = 0;
    epoch_tally slowest{};
    for (const epoch_tally& t : tallies_) {
        executed += t.executed;
        scaling_.serial_seconds += t.wall_seconds;
        scaling_.serial_cpu_seconds += t.cpu_seconds;
        if (t.wall_seconds > slowest.wall_seconds) slowest.wall_seconds = t.wall_seconds;
        if (t.cpu_seconds > slowest.cpu_seconds) slowest.cpu_seconds = t.cpu_seconds;
    }
    scaling_.critical_path_seconds += slowest.wall_seconds;
    scaling_.critical_path_cpu_seconds += slowest.cpu_seconds;
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

void shard_coordinator::start_workers()
{
    quit_ = false;
    workers_.reserve(shard_count());
    for (unsigned i = 0; i < shard_count(); ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

void shard_coordinator::stop_workers()
{
    if (workers_.empty()) return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        quit_ = true;
        cv_go_.notify_all();
    }
    for (auto& w : workers_) w.join();
    workers_.clear();
}

void shard_coordinator::worker_loop(unsigned i)
{
    std::uint64_t seen = 0;
    // Measured from the previous epoch's end, so each epoch's CPU time
    // also covers this worker's barrier hand-off.
    double cpu_mark = thread_cpu_seconds();
    for (;;) {
        sim_time until;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_go_.wait(lk, [&] { return quit_ || epoch_gen_ != seen; });
            if (quit_) return;
            seen = epoch_gen_;
            until = epoch_target_;
        }
        // Thread-local recorder: this shard's emits land in its own ring.
        trace::install(recorders_[i]);
        const epoch_tally t = run_shard(i, until, cpu_mark);
        {
            std::lock_guard<std::mutex> lk(mu_);
            tallies_[i] = t;
            if (++done_count_ == shard_count()) cv_done_.notify_one();
        }
    }
}

} // namespace mmtp::netsim
