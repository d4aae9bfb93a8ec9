// fabric_bench — one episode of one benchmark workload, in its own process.
//
//   fabric_bench --workload <name> --seed <n> [--episode <k>] [--traced]
//                [--trace-out <path>]
//
// An episode builds a Fabric through the public elastic constructor, drives
// it through the workload's verdict windows, and prints one JSON object with
// what it measured: set-up and whole-run wall time, every window's wall
// time, CPU after set-up, peak RSS, deterministic counts per layer, the
// correctness gates, and digests of the verdict stream. run.py runs many
// episodes and aggregates them; see README.md for the workloads and metrics.
// Episode k of a run draws its inputs from derive_seed(seed, "episode", k), so
// a run samples several inputs of its workload and one seed fixes them all.
//
// --traced turns the probes on (probes.h): spans around every fabric call,
// the timing IC decorator as Fabric_config::ic_factory and the counting
// game. The untraced episode uses the default ic_factory and the plain game,
// so the two runs' digests prove the probes are pure.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.h"
#include "ingest/workload.h"
#include "probes.h"
#include "shard/fabric.h"

namespace {

using namespace ga;
using fabricbench::Span;

/// The two-action dominant game every workload plays: action 1 costs 1,
/// action 0 costs 2, whatever the others do, so the prescription is always 1
/// and a fixed-action-0 agent fouls on every play.
class Dominant_game final : public game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(common::Agent_id) const override { return 2; }
    double cost(common::Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

enum class Drive { closed_loop, open_loop };

/// A workload's fixed shape; only the seed varies between runs.
struct Workload {
    std::string name;
    std::vector<int> shard_sizes; ///< initial topology, contiguous ids
    Drive drive = Drive::closed_loop;
    int windows = 0;              ///< verdict windows after set-up
    int fault_after = -1;         ///< closed loop: inject the fault after this window
};

const std::vector<Workload>& workloads()
{
    static const std::vector<Workload> all = {
        {"many_shards", std::vector<int>(32, 5), Drive::closed_loop, 400, -1},
        {"wide_groups", std::vector<int>(4, 20), Drive::closed_loop, 200, -1},
        {"overload_elastic", {40, 4, 4, 4, 4}, Drive::open_loop, 480, -1},
        {"transient_fault", std::vector<int>(8, 5), Drive::closed_loop, 800, 40},
    };
    return all;
}

/// The executor width every workload runs at.
int executor_width()
{
    return std::max(1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
}

/// Seeds of the four independent streams, all derived from the one argument.
struct Seeds {
    std::uint64_t fabric, net, load, deviators;
    explicit Seeds(std::uint64_t seed)
        : fabric{common::derive_seed(seed, "fabric")},
          net{common::derive_seed(seed, "net")},
          load{common::derive_seed(seed, "load")},
          deviators{common::derive_seed(seed, "deviators")}
    {
    }
};

/// About one agent in 17, drawn from the seed and stratified over the
/// initial shards: each shard gets its proportional share, and the shards
/// that take the leftover deviators (largest remainders, ties in seeded
/// order) and the members within each shard are drawn from the seed. So
/// every seed puts deviators in the same kinds of shard, and run-to-run
/// variation measures the program rather than where the deviators landed.
std::set<common::Agent_id> pick_deviators(const Workload& w, std::uint64_t seed)
{
    common::Rng rng{seed};
    const int n_shards = static_cast<int>(w.shard_sizes.size());
    int n_agents = 0;
    for (const int size : w.shard_sizes) n_agents += size;
    const int total = std::max(1, (n_agents + 8) / 17);

    std::vector<int> order(static_cast<std::size_t>(n_shards));
    for (int s = 0; s < n_shards; ++s) order[static_cast<std::size_t>(s)] = s;
    rng.shuffle(order);
    std::vector<int> share(static_cast<std::size_t>(n_shards));
    int assigned = 0;
    for (int s = 0; s < n_shards; ++s) {
        share[static_cast<std::size_t>(s)] =
            total * w.shard_sizes[static_cast<std::size_t>(s)] / n_agents;
        assigned += share[static_cast<std::size_t>(s)];
    }
    const auto remainder = [&](int s) {
        return total * w.shard_sizes[static_cast<std::size_t>(s)] % n_agents;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return remainder(a) > remainder(b); });
    for (int i = 0; assigned < total; ++i, ++assigned) {
        ++share[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    }

    std::set<common::Agent_id> deviators;
    common::Agent_id first = 0;
    for (int s = 0; s < n_shards; ++s) {
        const int size = w.shard_sizes[static_cast<std::size_t>(s)];
        std::vector<common::Agent_id> members(static_cast<std::size_t>(size));
        for (int i = 0; i < size; ++i) members[static_cast<std::size_t>(i)] = first + i;
        rng.shuffle(members);
        deviators.insert(members.begin(), members.begin() + share[static_cast<std::size_t>(s)]);
        first += size;
    }
    return deviators;
}

shard::Shard_map initial_map(const Workload& w)
{
    std::vector<int> shard_of;
    for (int s = 0; s < static_cast<int>(w.shard_sizes.size()); ++s) {
        shard_of.insert(shard_of.end(), static_cast<std::size_t>(w.shard_sizes[s]), s);
    }
    return shard::Shard_map{shard_of};
}

shard::Fabric_config make_config(const Workload& w, const Seeds& seeds,
                                 const std::set<common::Agent_id>& deviators, bool traced)
{
    shard::Fabric_config config;
    config.f = 1;
    config.seed = seeds.fabric;
    config.threads = executor_width();
    config.spec_factory = [traced](int, const std::vector<common::Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        std::shared_ptr<const game::Strategic_game> game =
            std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.game = traced ? fabricbench::counted_game(std::move(game)) : std::move(game);
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        return spec;
    };
    config.behavior_factory =
        [deviators](common::Agent_id g) -> std::unique_ptr<authority::Agent_behavior> {
        if (deviators.count(g) > 0) return std::make_unique<authority::Fixed_action_behavior>(0);
        return std::make_unique<authority::Honest_behavior>();
    };
    if (traced) config.ic_factory = fabricbench::timed_ic_factory();

    if (w.drive == Drive::closed_loop) {
        // Fined on every foul, never expelled: the closed loops keep every
        // group at full strength so scheduled plays stay comparable.
        config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
        return config;
    }
    // A small deposit: a deviator is expelled on its third foul.
    config.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 2.0); };
    config.batch_k = 4;
    // Timed delivery without loss. The authority tolerates f = 1 faulty
    // member per group; independent loss in a group of 40 makes several
    // members omit messages in the same play, which is outside that model
    // and flags honest agents. sim.dropped therefore reads 0 here.
    config.net.delta = 2;
    config.net.jitter = 0.5;
    config.net.seed = seeds.net;
    config.telemetry = true;
    config.trace = true;
    config.watchdog = telemetry::Watchdog_config{};
    config.rebalance = shard::rebalance_ingest_pressure(/*ratio=*/2.0, /*min_members=*/4);
    ingest::Ingest_config front;
    front.capacity = 4; // = one batch, the per-shard service rate per window
    front.queue_capacity = 16;
    front.priorities = 3;
    front.deadline_pulses = {0, 0, 64};
    config.ingest = front;
    return config;
}

/// Bursty open-loop load at 1.5x the initial aggregate service rate (five
/// shards x one 4-play batch per window = 20 plays per window).
ingest::Workload_config make_load(int n_agents, std::uint64_t seed)
{
    ingest::Workload_config load;
    load.clients = 24;
    for (common::Agent_id g = 0; g < n_agents; ++g) load.targets.push_back(g);
    load.priorities = 3;
    load.rate_num = 30;
    load.rate_den = 1;
    load.seed = seed;
    load.burst_period = 4;
    load.burst_duty = 0.5;
    return load;
}

// ---- Output.

class Json_object {
public:
    void field(const std::string& key, double v)
    {
        std::ostringstream s;
        s.precision(17);
        s << v;
        raw(key, s.str());
    }
    void field(const std::string& key, std::int64_t v) { raw(key, std::to_string(v)); }
    void field(const std::string& key, int v) { raw(key, std::to_string(v)); }
    void field(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
    void field(const std::string& key, const std::string& v) { raw(key, quote(v)); }
    void field(const std::string& key, const char* v) { raw(key, quote(v)); }
    void raw(const std::string& key, const std::string& json)
    {
        body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
    }
    [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

    static std::string quote(const std::string& s)
    {
        std::string out = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\') out += '\\';
            out += c;
        }
        return out + "\"";
    }

private:
    std::string body_;
};

std::string json_array(const std::vector<double>& values)
{
    std::ostringstream s;
    s.precision(9);
    s << "[";
    for (std::size_t i = 0; i < values.size(); ++i) s << (i ? "," : "") << values[i];
    s << "]";
    return s.str();
}

// ---- Digests.

void put(crypto::Sha256& h, std::int64_t v)
{
    std::uint8_t bytes[8];
    std::memcpy(bytes, &v, sizeof bytes);
    h.update(bytes, sizeof bytes);
}

void put(crypto::Sha256& h, double v) { put(h, std::bit_cast<std::int64_t>(v)); }

void put(crypto::Sha256& h, const sim::Traffic_stats& t)
{
    for (const std::int64_t v : {t.pulses, t.messages, t.payload_bytes, t.dropped, t.delayed}) {
        put(h, v);
    }
}

/// Every agent's agreed play history and standing: the verdict stream.
void put_verdicts(crypto::Sha256& h, const shard::Fabric& fabric)
{
    for (common::Agent_id g = 0; g < fabric.n_agents(); ++g) {
        put(h, std::int64_t{g});
        for (const auto& play : fabric.agent_history(g)) {
            put(h, play.completed_at);
            put(h, std::int64_t{play.action});
            put(h, std::int64_t{play.punished});
        }
        const authority::Standing s = fabric.agent_standing(g);
        put(h, std::int64_t{s.active});
        put(h, s.fines);
        put(h, s.reputation);
        put(h, s.cumulative_cost);
        put(h, std::int64_t{s.fouls});
    }
}

std::string verdict_digest(const shard::Fabric& fabric)
{
    crypto::Sha256 h;
    put_verdicts(h, fabric);
    return crypto::digest_hex(h.finish());
}

/// Fabric_metrics without its telemetry snapshot, plus the verdict stream.
std::string state_digest(const shard::Fabric& fabric, const metrics::Fabric_metrics& m)
{
    crypto::Sha256 h;
    for (const std::int64_t v :
         {std::int64_t{m.shards}, std::int64_t{m.epochs}, std::int64_t{m.agents}, m.total_plays,
          m.total_fouls, std::int64_t{m.total_disconnected}, m.min_shard_plays,
          m.max_shard_plays}) {
        put(h, v);
    }
    put(h, m.total_traffic);
    put(h, m.total_social_cost);
    put(h, m.price_of_anarchy.value_or(-1.0));
    for (const metrics::Shard_sample& s : m.per_shard) {
        for (const std::int64_t v : {std::int64_t{s.shard}, std::int64_t{s.epoch},
                                     std::int64_t{s.agents}, s.plays, s.fouls,
                                     std::int64_t{s.disconnected}}) {
            put(h, v);
        }
        put(h, s.traffic);
        put(h, s.social_cost);
        put(h, s.optimal_cost.value_or(-1.0));
    }
    put_verdicts(h, fabric);
    return crypto::digest_hex(h.finish());
}

// ---- Telemetry reads: by name, absent when the counter does not exist.

std::optional<double> counter(const telemetry::Snapshot& s, const std::string& name)
{
    const auto it = s.counters.find(name);
    if (it == s.counters.end()) return std::nullopt;
    return static_cast<double>(it->second);
}

std::optional<double> histogram_p(const telemetry::Snapshot& s, const std::string& name,
                                  double q)
{
    const auto it = s.histograms.find(name);
    if (it == s.histograms.end() || it->second.count() == 0) return std::nullopt;
    return static_cast<double>(it->second.quantile(q));
}

// ---- The episode.

struct Episode {
    Episode(const Workload& workload, bool probes) : w{workload}, traced{probes} {}

    const Workload& w;
    const bool traced;

    // End-to-end measurements.
    double setup_s = 0.0;
    double total_s = 0.0;
    double post_setup_cpu_s = 0.0;
    std::vector<double> window_ms;
    std::vector<double> pause_ms; ///< maybe_rebalance calls that changed the topology
    std::optional<double> recovery_s;
    std::vector<common::Pulse> fault_pulse; ///< per shard, at the fault (closed loop)
    std::int64_t plays = 0;
    std::int64_t attempted = 0; ///< scheduled plays (closed) or fresh requests (open)
    std::int64_t failed = 0;

    std::map<std::string, double> layers;
    std::vector<std::pair<std::string, std::string>> gate_failures;
    std::vector<std::string> gates_checked;
    std::string state_digest_hex;
    std::string verdict_digest_hex;

    // Probe accumulators (traced only).
    fabricbench::Probe_totals build_probe;
    fabricbench::Probe_totals window_probe;
    fabricbench::Probe_totals transition_probe; ///< maybe_rebalance calls
    std::int64_t window_cpu_ns = 0;
    std::int64_t window_wall_ns = 0;

    void gate(const std::string& name, bool ok, const std::string& reason)
    {
        gates_checked.push_back(name);
        if (!ok) gate_failures.emplace_back(name, reason);
    }

    /// Time one verdict window; in the traced run also attribute its CPU and
    /// probe counts to the window phase.
    template <typename Body>
    void window(Body&& body)
    {
        fabricbench::Probe_totals before;
        std::int64_t cpu_before = 0;
        if (traced) {
            before = fabricbench::probe_totals();
            cpu_before = fabricbench::process_cpu_ns();
        }
        std::int64_t ns = 0;
        {
            Span span{"window"};
            body();
            ns = span.elapsed_ns();
        }
        window_ms.push_back(static_cast<double>(ns) / 1e6);
        if (traced) {
            window_cpu_ns += fabricbench::process_cpu_ns() - cpu_before;
            window_wall_ns += ns;
            window_probe.add(fabricbench::probe_totals().minus(before));
        }
    }
};

void run_closed_loop(Episode& ep, shard::Fabric& fabric)
{
    const Workload& w = ep.w;
    const int shards = fabric.n_shards();
    std::vector<std::int64_t> last(static_cast<std::size_t>(shards), 0);
    std::int64_t fault_ns = -1;
    std::int64_t recovered_ns = -1; ///< end of the last window with a shortfall
    std::int64_t lost = 0;
    int last_short_window = -1;
    for (int win = 0; win < w.windows; ++win) {
        if (win == w.fault_after) {
            const std::int64_t agreed = fabric.report().total_plays;
            ep.gate("plays_before_fault", agreed == std::int64_t{shards} * win,
                    "agreed " + std::to_string(agreed) + " plays before the fault, scheduled " +
                        std::to_string(std::int64_t{shards} * win));
            Span span{"transient_fault"};
            fault_ns = fabricbench::wall_ns();
            for (int s = 0; s < shards; ++s) ep.fault_pulse.push_back(fabric.shard(s).now());
            fabric.inject_transient_fault();
        }
        ep.window([&] { fabric.run_plays(1); });
        bool shortfall = false;
        for (int s = 0; s < shards; ++s) {
            const auto done = static_cast<std::int64_t>(fabric.shard(s).agreed_plays().size());
            const std::int64_t delta = done - last[static_cast<std::size_t>(s)];
            last[static_cast<std::size_t>(s)] = done;
            if (delta < 1) {
                shortfall = true;
                lost += 1 - delta;
            }
        }
        if (shortfall && fault_ns >= 0) {
            recovered_ns = fabricbench::wall_ns();
            last_short_window = win;
        }
    }
    ep.attempted = std::int64_t{shards} * w.windows;
    ep.layers["shard.transitions"] = 0;
    ep.layers["shard.rebuilt_groups"] = 0;
    ep.layers["shard.quiesce_pulses_max"] = 0;
    if (w.fault_after >= 0) {
        const common::Pulse pulses_per_play = fabric.shard(0).pulses_for_plays(1);
        const int windows_to_recover =
            last_short_window < 0 ? 0 : last_short_window - w.fault_after + 1;
        ep.recovery_s =
            recovered_ns < 0 ? 0.0 : static_cast<double>(recovered_ns - fault_ns) / 1e9;
        ep.layers["ssba.recovery_pulses"] =
            static_cast<double>(windows_to_recover * pulses_per_play);
        ep.layers["ssba.lost_plays"] = static_cast<double>(lost);
        ep.gate("stabilized", last_short_window < w.windows - 1,
                "a shard still missed plays in the final window");
    }
}

void run_open_loop(Episode& ep, shard::Fabric& fabric, const Seeds& seeds)
{
    const Workload& w = ep.w;
    ingest::Open_loop_load load{make_load(fabric.n_agents(), seeds.load)};
    int transitions = 0;
    int rebuilt = 0;
    common::Pulse quiesce_max = 0;
    double transition_ms = 0.0;
    for (int t = 0; t < w.windows; ++t) {
        ep.window([&] {
            for (const ingest::Submission& sub : load.tick(t)) {
                ingest::Submit_result result;
                {
                    Span span{"submit"};
                    result = fabric.submit(sub);
                }
                load.on_result(sub, result, t);
            }
            (void)fabric.pump_ingest();
        });
        const fabricbench::Probe_totals before =
            ep.traced ? fabricbench::probe_totals() : fabricbench::Probe_totals{};
        Span span{"maybe_rebalance"};
        const bool changed = fabric.maybe_rebalance();
        if (ep.traced) ep.transition_probe.add(fabricbench::probe_totals().minus(before));
        if (changed) {
            const double ms = static_cast<double>(span.elapsed_ns()) / 1e6;
            ep.pause_ms.push_back(ms);
            transition_ms += ms;
            ++transitions;
            rebuilt += fabric.last_rebalance()->rebuilt;
            quiesce_max = std::max(quiesce_max, fabric.last_rebalance()->max_quiesce_pulses);
        }
    }
    ep.layers["shard.transitions"] = transitions;
    ep.layers["shard.rebuilt_groups"] = rebuilt;
    ep.layers["shard.quiesce_pulses_max"] = static_cast<double>(quiesce_max);
    if (ep.traced) ep.layers["shard.transition_ms"] = transition_ms;

    const ingest::Ingest_totals totals = fabric.ingest_totals();
    std::int64_t queued_end = 0;
    for (int s = 0; s < fabric.n_shards(); ++s) queued_end += fabric.inlet(s).depth();
    ep.gate("ingest_completed_eq_served", totals.completed == totals.served,
            "completed " + std::to_string(totals.completed) + " != served " +
                std::to_string(totals.served));
    ep.gate("ingest_conserved",
            totals.accepted + totals.queued ==
                totals.completed + totals.shed_deadline + queued_end,
            "admitted work neither served, deadline-shed nor still queued");
    ep.attempted = load.stats().fresh;
    ep.layers["ingest.offered"] = static_cast<double>(totals.offered);
    ep.layers["ingest.accepted"] = static_cast<double>(totals.accepted);
    ep.layers["ingest.queued"] = static_cast<double>(totals.queued);
    ep.layers["ingest.retry_after"] = static_cast<double>(totals.retry_after);
    ep.layers["ingest.shed"] = static_cast<double>(totals.shed);
    ep.layers["ingest.shed_deadline"] = static_cast<double>(totals.shed_deadline);
    ep.layers["ingest.completed"] = static_cast<double>(totals.completed);
    ep.layers["ingest.queue_depth_max"] = static_cast<double>(totals.queue_depth_max);
    ep.layers["ingest.useful_ratio"] =
        totals.offered > 0
            ? static_cast<double>(totals.completed) / static_cast<double>(totals.offered)
            : 0.0;
    // Where the fresh requests that got no completion ended up.
    ep.layers["ingest.queued_at_end"] = static_cast<double>(queued_end);
    ep.layers["ingest.abandoned"] = static_cast<double>(load.stats().abandoned);
    ep.layers["ingest.awaiting_retry"] = static_cast<double>(
        load.stats().fresh - totals.accepted - totals.queued - load.stats().abandoned);
    if (ep.traced) {
        ep.layers["ingest.submit_ms"] =
            static_cast<double>(fabricbench::span_total_ns("submit")) / 1e6;
    }
}

/// Completions an inlet recorded beyond the agreed plays of the group that
/// served them, summed over group lifetimes ((epoch, shard) samples).
std::int64_t unbacked_completions(const metrics::Fabric_metrics& m)
{
    std::int64_t unbacked = 0;
    for (const metrics::Shard_sample& s : m.per_shard) {
        const std::optional<double> done = counter(s.telemetry, "ingest.completed");
        if (done.has_value()) {
            unbacked += std::max<std::int64_t>(0, static_cast<std::int64_t>(*done) - s.plays);
        }
    }
    return unbacked;
}

Episode run_episode(const Workload& w, std::uint64_t seed, bool traced)
{
    Episode ep{w, traced};
    const Seeds seeds{seed};
    shard::Shard_map map = initial_map(w);
    const std::set<common::Agent_id> deviators = pick_deviators(w, seeds.deviators);
    shard::Fabric_config config = make_config(w, seeds, deviators, traced);

    const std::int64_t start_ns = fabricbench::wall_ns();
    std::optional<shard::Fabric> fabric;
    {
        Span span{"construction"};
        fabric.emplace(std::move(map), std::move(config));
        fabric->run_pulses(1);
    }
    const std::int64_t setup_end_ns = fabricbench::wall_ns();
    const std::int64_t setup_end_cpu = fabricbench::process_cpu_ns();
    ep.setup_s = static_cast<double>(setup_end_ns - start_ns) / 1e9;
    if (traced) {
        ep.build_probe = fabricbench::probe_totals();
        ep.layers["shard.build_ms"] = static_cast<double>(setup_end_ns - start_ns) / 1e6;
    }

    if (w.drive == Drive::closed_loop) {
        run_closed_loop(ep, *fabric);
    } else {
        run_open_loop(ep, *fabric, seeds);
    }

    std::optional<metrics::Fabric_metrics> report;
    {
        Span span{"report"};
        report.emplace(fabric->report());
        if (traced) {
            ep.layers["metrics.report_ms"] = static_cast<double>(span.elapsed_ns()) / 1e6;
        }
    }
    if (fabric->telemetry_enabled()) {
        Span span{"export"};
        const telemetry::Report telemetry_report = fabric->telemetry_report();
        const std::string json = telemetry::to_json(telemetry_report);
        const std::string trace =
            telemetry::to_chrome_trace(fabric->trace_report(), &telemetry_report);
        ep.layers["telemetry.json_bytes"] = static_cast<double>(json.size());
        ep.layers["telemetry.trace_bytes"] = static_cast<double>(trace.size());
        if (traced) {
            ep.layers["telemetry.export_ms"] = static_cast<double>(span.elapsed_ns()) / 1e6;
        }
    }
    const std::int64_t end_ns = fabricbench::wall_ns();
    ep.total_s = static_cast<double>(end_ns - start_ns) / 1e9;
    ep.post_setup_cpu_s =
        static_cast<double>(fabricbench::process_cpu_ns() - setup_end_cpu) / 1e9;

    // ---- Counts (deterministic: a pure function of the seed).
    const metrics::Fabric_metrics& m = *report;
    ep.plays = m.total_plays;
    const double plays = static_cast<double>(std::max<std::int64_t>(1, m.total_plays));
    ep.layers["sim.messages_per_play"] = static_cast<double>(m.total_traffic.messages) / plays;
    ep.layers["sim.bytes_per_play"] = static_cast<double>(m.total_traffic.payload_bytes) / plays;
    ep.layers["sim.pulses_per_play"] = static_cast<double>(m.total_traffic.pulses) / plays;
    ep.layers["sim.dropped"] = static_cast<double>(m.total_traffic.dropped);
    ep.layers["sim.delayed"] = static_cast<double>(m.total_traffic.delayed);
    const telemetry::Snapshot& tel = m.telemetry;
    if (const auto v = counter(tel, "wire.frames")) ep.layers["wire.frames_per_play"] = *v / plays;
    if (const auto v = counter(tel, "wire.bytes")) ep.layers["wire.bytes_per_play"] = *v / plays;
    if (const auto v = counter(tel, "batches.completed")) ep.layers["pipeline.batches"] = *v;
    if (const auto v = histogram_p(tel, "batch.window_pulses", 0.5)) {
        ep.layers["pipeline.batch_window_pulses_p50"] = *v;
    }
    if (const auto v = counter(tel, "clock.held_boundaries")) {
        ep.layers["clock.held_boundaries"] = *v;
    }
    if (const auto v = counter(tel, "ingest.shed_expelled")) {
        ep.layers["ingest.shed_expelled"] = *v;
    }
    if (const auto v = histogram_p(tel, "ingest.submit_to_verdict_pulses", 0.5)) {
        ep.layers["ingest.verdict_pulses_p50"] = *v;
    }
    if (const auto v = histogram_p(tel, "ingest.submit_to_verdict_pulses", 0.99)) {
        ep.layers["ingest.verdict_pulses_p99"] = *v;
    }
    if (w.drive == Drive::open_loop) {
        const std::int64_t unbacked = unbacked_completions(m);
        ep.layers["ingest.unbacked_completions"] = static_cast<double>(unbacked);
        const auto completed = static_cast<std::int64_t>(ep.layers["ingest.completed"]);
        // A fresh request succeeds only as a completion with an agreed play
        // behind it; everything else (abandoned, deadline-shed, shed as
        // expelled and given up, still queued or awaiting retry, unbacked)
        // is a failure.
        ep.failed = ep.attempted - (completed - unbacked);
    } else {
        ep.failed = ep.attempted - m.total_plays;
    }
    ep.layers["failed_share"] =
        ep.attempted > 0 ? static_cast<double>(ep.failed) / static_cast<double>(ep.attempted)
                         : 0.0;

    // ---- Correctness gates. A transient fault garbles every replica's state,
    // and the executive ledger is not itself self-stabilizing (§4): while a
    // shard converges, its audit may misfire once against an honest agent.
    // So after the fault each honest agent may be flagged at most once and
    // never expelled; before the fault, and in the other workloads, never.
    int honest_flagged = 0;
    int expelled = 0;
    std::string honest_reason;
    std::string deviator_reason;
    for (common::Agent_id g = 0; g < fabric->n_agents(); ++g) {
        const authority::Standing s = fabric->agent_standing(g);
        const bool out = fabric->agent_disconnected(g);
        expelled += out ? 1 : 0;
        const common::Pulse fault_at =
            ep.fault_pulse.empty()
                ? -1
                : ep.fault_pulse[static_cast<std::size_t>(fabric->map().shard_of(g))];
        bool punished = s.fouls > 0;
        int flags_before_fault = 0;
        int flags_after_fault = 0;
        for (const auto& play : fabric->agent_history(g)) {
            punished = punished || play.punished;
            if (!play.punished) continue;
            if (fault_at >= 0 && play.completed_at > fault_at) {
                ++flags_after_fault;
            } else {
                ++flags_before_fault;
            }
        }
        if (deviators.count(g) == 0) {
            honest_flagged += punished ? 1 : 0;
            const bool bad = out || (fault_at < 0 ? punished
                                                 : flags_before_fault > 0 || flags_after_fault > 1);
            if (bad && honest_reason.empty()) {
                honest_reason = "honest agent " + std::to_string(g) +
                                (out ? " expelled" : " flagged") + " with " +
                                std::to_string(s.fouls) + " foul(s)";
            }
        } else if (!punished) {
            if (deviator_reason.empty()) {
                deviator_reason = "deviator " + std::to_string(g) + " never flagged";
            }
        } else if (w.drive == Drive::open_loop && !out) {
            if (deviator_reason.empty()) {
                deviator_reason = "deviator " + std::to_string(g) + " not expelled";
            }
        }
    }
    ep.gate("honest_never_flagged", honest_reason.empty(), honest_reason);
    ep.gate("deviators_caught", deviator_reason.empty(), deviator_reason);
    if (w.fault_after < 0 && w.drive == Drive::closed_loop) {
        ep.gate("every_play_agreed", m.total_plays == ep.attempted,
                "agreed " + std::to_string(m.total_plays) + " of " +
                    std::to_string(ep.attempted) + " scheduled plays");
    }
    ep.layers["authority.fouls"] = static_cast<double>(m.total_fouls);
    ep.layers["authority.expelled"] = expelled;
    ep.layers["authority.honest_flagged"] = honest_flagged;

    // ---- Probe-derived layers (traced run).
    if (traced) {
        const fabricbench::Probe_totals& b = ep.build_probe;
        const fabricbench::Probe_totals& p = ep.window_probe;
        const double cpu_ms = static_cast<double>(ep.window_cpu_ns) / 1e6;
        const double bft_ms = static_cast<double>(p.ic_message_ns + p.ic_deliver_ns) / 1e6;
        const double game_ms = static_cast<double>(p.cost_ns) / 1e6;
        // Group builds happen at construction and inside epoch transitions.
        fabricbench::Probe_totals builds = b;
        builds.add(ep.transition_probe);
        ep.layers["game.cost_calls_build"] = static_cast<double>(builds.cost_calls);
        ep.layers["game.cost_build_ms"] = static_cast<double>(b.cost_ns) / 1e6;
        ep.layers["game.cost_transition_ms"] =
            static_cast<double>(ep.transition_probe.cost_ns) / 1e6;
        ep.layers["bft.sessions_per_play"] = static_cast<double>(p.ic_sessions) / plays;
        ep.layers["bft.rounds_per_play"] = static_cast<double>(p.ic_rounds) / plays;
        ep.layers["bft.payload_bytes_per_play"] = static_cast<double>(p.ic_payload_bytes) / plays;
        ep.layers["bft.message_cpu_ms"] = static_cast<double>(p.ic_message_ns) / 1e6;
        ep.layers["bft.deliver_cpu_ms"] = static_cast<double>(p.ic_deliver_ns) / 1e6;
        ep.layers["bft.cpu_share"] = cpu_ms > 0 ? bft_ms / cpu_ms : 0.0;
        ep.layers["game.cost_calls_per_play"] = static_cast<double>(p.cost_calls) / plays;
        ep.layers["game.cost_cpu_ms"] = game_ms;
        ep.layers["authority.self_cpu_ms"] = cpu_ms - bft_ms - game_ms;
        ep.layers["common.cpu_per_wall"] =
            ep.window_wall_ns > 0
                ? static_cast<double>(ep.window_cpu_ns) / static_cast<double>(ep.window_wall_ns)
                : 0.0;
    }

    ep.state_digest_hex = state_digest(*fabric, m);
    ep.verdict_digest_hex = verdict_digest(*fabric);
    return ep;
}

std::string compiler()
{
#if defined(__clang__)
    return std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
    return std::string{"gcc "} + __VERSION__;
#else
    return "unknown";
#endif
}

int usage()
{
    std::cerr << "usage: fabric_bench --workload <name> --seed <n> [--episode <k>] [--traced] "
                 "[--trace-out <path>]\nworkloads:";
    for (const Workload& w : workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    std::string name;
    std::optional<std::uint64_t> seed;
    std::uint64_t episode = 0;
    bool traced = false;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            name = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::stoull(argv[++i]);
        } else if (arg == "--episode" && i + 1 < argc) {
            episode = std::stoull(argv[++i]);
        } else if (arg == "--traced") {
            traced = true;
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else {
            return usage();
        }
    }
    const auto it = std::find_if(workloads().begin(), workloads().end(),
                                 [&](const Workload& w) { return w.name == name; });
    if (it == workloads().end() || !seed.has_value()) return usage();
    if (traced) fabricbench::enable_probes();

    const Episode ep = run_episode(*it, common::derive_seed(*seed, "episode", episode), traced);

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);

    Json_object out;
    out.field("workload", it->name);
    out.field("seed", static_cast<std::int64_t>(*seed));
    out.field("episode", static_cast<std::int64_t>(episode));
    out.field("traced", traced);
    out.field("threads", executor_width());
    out.field("compiler", compiler());
    out.field("build_type", FABRICBENCH_BUILD_TYPE);
    out.field("setup_s", ep.setup_s);
    out.field("total_s", ep.total_s);
    out.field("post_setup_cpu_s", ep.post_setup_cpu_s);
    out.field("plays", ep.plays);
    out.field("attempted", ep.attempted);
    out.field("failed", ep.failed);
    out.field("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0);
    out.raw("window_ms", json_array(ep.window_ms));
    out.raw("pause_ms", json_array(ep.pause_ms));
    if (ep.recovery_s.has_value()) out.field("recovery_s", *ep.recovery_s);
    Json_object layers;
    for (const auto& [key, value] : ep.layers) layers.field(key, value);
    out.raw("layers", layers.str());
    std::string checked = "[";
    for (std::size_t i = 0; i < ep.gates_checked.size(); ++i) {
        checked += (i ? "," : "") + Json_object::quote(ep.gates_checked[i]);
    }
    out.raw("gates", checked + "]");
    Json_object failures;
    for (const auto& [gate, reason] : ep.gate_failures) failures.field(gate, reason);
    out.raw("gate_failures", failures.str());
    out.field("state_digest", ep.state_digest_hex);
    out.field("verdict_digest", ep.verdict_digest_hex);
    std::cout << out.str() << "\n";

    if (!trace_out.empty()) {
        std::ofstream file{trace_out};
        file << fabricbench::chrome_trace_json("fabric_bench " + it->name);
        if (!file) {
            std::cerr << "cannot write " << trace_out << "\n";
            return 1;
        }
    }
    return 0;
}
