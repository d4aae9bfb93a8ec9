#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <mutex>
#include <sstream>
#include <vector>

#include "bft/session.h"

namespace fabricbench {

namespace {

struct Recorded_span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1; ///< -1 while open
    std::int64_t parent = -1; ///< index in the same buffer
};

/// One thread's probe state. Only its own thread writes it; readers wait for
/// the executor join (see probe_totals).
struct Thread_buffer {
    int tid = 0;
    Probe_totals totals;
    std::vector<Recorded_span> spans;
    std::vector<std::int64_t> open; ///< stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mutex;
/// Owned for the life of the process, so a buffer outlives the executor
/// thread that wrote it.
std::vector<std::unique_ptr<Thread_buffer>> g_registry;

Thread_buffer& local_buffer()
{
    thread_local Thread_buffer* local = nullptr;
    if (local == nullptr) {
        std::lock_guard<std::mutex> lock{g_registry_mutex};
        g_registry.push_back(std::make_unique<Thread_buffer>());
        local = g_registry.back().get();
        local->tid = static_cast<int>(g_registry.size());
    }
    return *local;
}

/// Times one IC activation's rounds; everything else passes straight through.
class Timed_ic final : public ga::bft::Ic_session {
public:
    explicit Timed_ic(std::unique_ptr<ga::bft::Ic_session> inner) : inner_{std::move(inner)} {}

    [[nodiscard]] ga::common::Round total_rounds() const override
    {
        return inner_->total_rounds();
    }

    ga::common::Bytes message_for_round(ga::common::Round r) override
    {
        const std::int64_t start = wall_ns();
        ga::common::Bytes out = inner_->message_for_round(r);
        Probe_totals& t = local_buffer().totals;
        t.ic_message_ns += wall_ns() - start;
        t.ic_rounds += 1;
        t.ic_payload_bytes += static_cast<std::int64_t>(out.size());
        return out;
    }

    void deliver_round(ga::common::Round r, const ga::bft::Round_payloads& payloads) override
    {
        const std::int64_t start = wall_ns();
        inner_->deliver_round(r, payloads);
        local_buffer().totals.ic_deliver_ns += wall_ns() - start;
    }

    [[nodiscard]] bool done() const override { return inner_->done(); }
    [[nodiscard]] ga::bft::Value decision() const override { return inner_->decision(); }
    [[nodiscard]] const std::vector<ga::bft::Value>& agreed_vector() const override
    {
        return inner_->agreed_vector();
    }

private:
    std::unique_ptr<ga::bft::Ic_session> inner_;
};

constexpr std::int64_t k_cost_sample = 64;

/// What one wall_ns() pair costs when nothing runs between the reads: the
/// median of many back-to-back pairs, taken once per process. A timed
/// cost() call is a few nanoseconds, so without this correction the
/// estimate would mostly measure the clock.
std::int64_t clock_overhead_ns()
{
    static const std::int64_t overhead = [] {
        std::vector<std::int64_t> gaps(1001);
        for (std::int64_t& gap : gaps) {
            const std::int64_t a = wall_ns();
            gap = wall_ns() - a;
        }
        std::nth_element(gaps.begin(), gaps.begin() + 500, gaps.end());
        return gaps[500];
    }();
    return overhead;
}

/// Counts and times cost(); the game itself is shared and stateless, and the
/// counters live in the calling thread's buffer, so concurrent shards are safe.
class Counted_game final : public ga::game::Strategic_game {
public:
    explicit Counted_game(std::shared_ptr<const ga::game::Strategic_game> inner)
        : inner_{std::move(inner)}
    {
    }

    [[nodiscard]] int n_agents() const override { return inner_->n_agents(); }
    [[nodiscard]] int n_actions(ga::common::Agent_id i) const override
    {
        return inner_->n_actions(i);
    }
    [[nodiscard]] double cost(ga::common::Agent_id i,
                              const ga::game::Pure_profile& profile) const override
    {
        // Every call is counted; every k_cost_sample-th is timed and stands
        // for the calls around it. cost() is one short function, so the
        // sample is representative, and timing each call would make the
        // traced run of a 2^20-profile enumeration several times slower.
        Probe_totals& t = local_buffer().totals;
        t.cost_calls += 1;
        if (t.cost_calls % k_cost_sample != 0) return inner_->cost(i, profile);
        const std::int64_t start = wall_ns();
        const double c = inner_->cost(i, profile);
        const std::int64_t elapsed = wall_ns() - start - clock_overhead_ns();
        t.cost_ns += std::max<std::int64_t>(0, elapsed) * k_cost_sample;
        return c;
    }

private:
    std::shared_ptr<const ga::game::Strategic_game> inner_;
};

void append_event(std::ostringstream& out, bool& first, const std::string& body)
{
    out << (first ? "\n" : ",\n") << body;
    first = false;
}

} // namespace

std::int64_t wall_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t process_cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

Probe_totals Probe_totals::minus(const Probe_totals& earlier) const
{
    return {ic_sessions - earlier.ic_sessions,
            ic_rounds - earlier.ic_rounds,
            ic_payload_bytes - earlier.ic_payload_bytes,
            ic_message_ns - earlier.ic_message_ns,
            ic_deliver_ns - earlier.ic_deliver_ns,
            cost_calls - earlier.cost_calls,
            cost_ns - earlier.cost_ns};
}

void Probe_totals::add(const Probe_totals& other)
{
    ic_sessions += other.ic_sessions;
    ic_rounds += other.ic_rounds;
    ic_payload_bytes += other.ic_payload_bytes;
    ic_message_ns += other.ic_message_ns;
    ic_deliver_ns += other.ic_deliver_ns;
    cost_calls += other.cost_calls;
    cost_ns += other.cost_ns;
}

void enable_probes() { g_enabled.store(true); }

bool probes_enabled() { return g_enabled.load(std::memory_order_relaxed); }

Probe_totals probe_totals()
{
    std::lock_guard<std::mutex> lock{g_registry_mutex};
    Probe_totals sum;
    for (const auto& buffer : g_registry) sum.add(buffer->totals);
    return sum;
}

Span::Span(const char* name) : start_ns_{wall_ns()}
{
    if (!probes_enabled()) return;
    Thread_buffer& buffer = local_buffer();
    index_ = static_cast<std::int64_t>(buffer.spans.size());
    const std::int64_t parent = buffer.open.empty() ? -1 : buffer.open.back();
    buffer.spans.push_back({name, start_ns_, -1, parent});
    buffer.open.push_back(index_);
}

Span::~Span()
{
    if (index_ < 0) return;
    Thread_buffer& buffer = local_buffer();
    buffer.spans[static_cast<std::size_t>(index_)].end_ns = wall_ns();
    buffer.open.pop_back();
}

std::int64_t Span::elapsed_ns() const { return wall_ns() - start_ns_; }

std::int64_t span_total_ns(const char* name)
{
    std::lock_guard<std::mutex> lock{g_registry_mutex};
    const std::string wanted{name};
    std::int64_t total = 0;
    for (const auto& buffer : g_registry) {
        for (const Recorded_span& s : buffer->spans) {
            if (s.end_ns >= 0 && wanted == s.name) total += s.end_ns - s.start_ns;
        }
    }
    return total;
}

ga::bft::Ic_factory timed_ic_factory()
{
    return [](int n, int f, ga::common::Processor_id self,
              ga::bft::Value input) -> std::unique_ptr<ga::bft::Ic_session> {
        local_buffer().totals.ic_sessions += 1;
        return std::make_unique<Timed_ic>(
            ga::bft::choose_ic(n, f)(n, f, self, std::move(input)));
    };
}

std::shared_ptr<const ga::game::Strategic_game>
counted_game(std::shared_ptr<const ga::game::Strategic_game> game)
{
    return std::make_shared<Counted_game>(std::move(game));
}

std::string chrome_trace_json(const std::string& process_name)
{
    std::lock_guard<std::mutex> lock{g_registry_mutex};
    std::int64_t origin = -1;
    for (const auto& buffer : g_registry) {
        for (const Recorded_span& s : buffer->spans) {
            if (origin < 0 || s.start_ns < origin) origin = s.start_ns;
        }
    }
    // Integer microseconds: ga_inspect reads ts as an integer tick.
    const auto us = [origin](std::int64_t ns) { return (ns - origin) / 1000; };
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    bool first = true;
    append_event(out, first,
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"ts\":0,"
                 "\"args\":{\"name\":\"" + process_name + "\"}}");
    std::int64_t next_id = 1;
    for (const auto& buffer : g_registry) {
        if (buffer->spans.empty()) continue;
        const std::string tid = std::to_string(buffer->tid);
        append_event(out, first,
                     "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" + tid +
                         ",\"ts\":0,\"args\":{\"name\":\"thread " + tid + "\"}}");
        const std::int64_t base = next_id;
        for (const Recorded_span& s : buffer->spans) {
            const std::int64_t id = next_id++;
            const std::int64_t end = s.end_ns >= 0 ? s.end_ns : s.start_ns;
            const std::string common = std::string{"\"name\":\""} + s.name +
                                       "\",\"cat\":\"fabricbench\",\"id\":" +
                                       std::to_string(id) + ",\"pid\":1,\"tid\":" + tid;
            const std::int64_t parent = s.parent >= 0 ? base + s.parent : 0;
            append_event(out, first,
                         "{\"ph\":\"b\"," + common + ",\"ts\":" + std::to_string(us(s.start_ns)) +
                             ",\"args\":{\"parent\":" + std::to_string(parent) + "}}");
            append_event(out, first,
                         "{\"ph\":\"e\"," + common + ",\"ts\":" + std::to_string(us(end)) + "}");
        }
    }
    out << "\n]}\n";
    return out.str();
}

} // namespace fabricbench
