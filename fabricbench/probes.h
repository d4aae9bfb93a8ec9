// Probes for the benchmark's traced run: wall-clock spans around every call
// the driver makes into the fabric, an Ic_session decorator that counts and
// times the IC layer, and a Strategic_game decorator that counts and times
// cost(). Everything is recorded into per-thread in-memory buffers and read
// back only between executor runs, when no worker is stepping a shard.
//
// The probes observe from outside the program: they sit on the public seams
// Fabric_config::ic_factory and Game_spec::game, so a traced run's verdicts
// must equal the untraced run's bit for bit (the driver checks this).
#ifndef FABRICBENCH_PROBES_H
#define FABRICBENCH_PROBES_H

#include <cstdint>
#include <memory>
#include <string>

#include "bft/ic_select.h"
#include "game/strategic_game.h"

namespace fabricbench {

/// Monotonic wall clock, nanoseconds.
[[nodiscard]] std::int64_t wall_ns();

/// CPU time of the whole process (user + sys, every thread), nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();

/// Counts the decorators accumulate, summed over every thread's buffer.
struct Probe_totals {
    std::int64_t ic_sessions = 0;      ///< IC activations minted
    std::int64_t ic_rounds = 0;        ///< message_for_round calls
    std::int64_t ic_payload_bytes = 0; ///< bytes those calls returned
    std::int64_t ic_message_ns = 0;    ///< time inside message_for_round
    std::int64_t ic_deliver_ns = 0;    ///< time inside deliver_round
    std::int64_t cost_calls = 0;       ///< Strategic_game::cost calls
    std::int64_t cost_ns = 0;          ///< time inside cost(), estimated from every 64th call

    [[nodiscard]] Probe_totals minus(const Probe_totals& earlier) const;
    void add(const Probe_totals& other);
};

/// Turn the probes on for the rest of the process (the traced run). Off by
/// default: spans are then no-ops and no decorator is installed.
void enable_probes();
[[nodiscard]] bool probes_enabled();

/// Sum of every thread's counters. Call only from the driver thread while no
/// fabric call is running: the executor's join orders the workers' writes
/// before this read.
[[nodiscard]] Probe_totals probe_totals();

/// RAII span on the calling thread's buffer; nests under the thread's open
/// span. `name` must be a string literal.
class Span {
public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Wall nanoseconds since construction (valid with probes on or off).
    [[nodiscard]] std::int64_t elapsed_ns() const;

private:
    std::int64_t start_ns_;
    std::int64_t index_ = -1; ///< slot in the thread buffer; -1 with probes off
};

/// Sum of the durations of every closed span called `name`, over all threads.
[[nodiscard]] std::int64_t span_total_ns(const char* name);

/// bft::choose_ic(n, f), with every session wrapped in the timing decorator.
[[nodiscard]] ga::bft::Ic_factory timed_ic_factory();

/// `game`, wrapped so every cost() call is counted and timed.
[[nodiscard]] std::shared_ptr<const ga::game::Strategic_game>
counted_game(std::shared_ptr<const ga::game::Strategic_game> game);

/// Every recorded span as Chrome trace-event JSON (async b/e pairs, one
/// thread track per buffer), loadable in Perfetto and by ga_inspect --trace.
[[nodiscard]] std::string chrome_trace_json(const std::string& process_name);

} // namespace fabricbench

#endif // FABRICBENCH_PROBES_H
