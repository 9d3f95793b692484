// consensus_bench — wall time for the paper's protocols to reach consensus,
// end to end and split by simulator layer.
//
// One invocation measures one workload (scenario × backend × parameters) for
// `--seconds` of wall time over trial seeds derived from `--seed`:
//
//   * untraced (`--trace 0`): every trial goes through the public scenario
//     layer — scenario_registry → any_scenario::run, the path plurality_run
//     takes — and yields the end-to-end metrics (time_to_consensus_s,
//     setup_s, parallel_time, success_rate, peak_rss_mb);
//   * traced (`--trace 1`): every trial runs twice, once untraced as above
//     and once through a path rebuilt from the same public functions the
//     scenario layer calls (make_workload, protocol_config::make, the
//     population/census factory, the simulator constructor, sim::converge
//     with a timing observer and a timing predicate wrapper).  Spans around
//     those calls give the per-layer metrics; the two runs must agree on
//     every count-valued metric.
//
// Trials cycle through `--trials` distinct seeds until `--seconds` have
// passed, and always run at least one repeat: a repeated seed must reproduce
// every count-valued metric bit for bit.  Count-valued results, and the
// per-trial peak resident memory, are medians over the first pass (the same
// trials for every run of a `--seed`).  time_to_consensus_s is the mean and
// setup_s the median over the seeds of each seed's fastest repeat: a seed's
// work is identical on every repeat, so its fastest one is the run least
// slowed by other load on a shared host, whose speed drifts by tens of
// percent over seconds to minutes.  The traced run's wall-clock results are medians over
// every trial.
//
// Every trial is checked: it must converge within the scenario's default
// budget to the workload's plurality opinion, and on the leap backend its
// delta-path counters must account for every interaction.  A violation
// prints one line, fails the trial, and makes the exit status non-zero.
//
// The first line of stdout records provenance (build type, PLURALITY_OBS,
// compiler, nproc, commit); a per-metric summary with quartiles follows; the
// last line is one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/census_encoding.h"
#include "core/config.h"
#include "core/plurality_protocol.h"
#include "obs/catalogue.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "sim/census_simulator.h"
#include "sim/convergence.h"
#include "sim/leap_census_simulator.h"
#include "sim/population_view.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace {

using namespace plurality;
using steady = std::chrono::steady_clock;

double seconds_between(steady::time_point from, steady::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Options and workload classification
// ---------------------------------------------------------------------------

/// The traced path rebuilds the plurality scenarios from public functions.
/// The batch backend is deliberately not measured.
struct options {
    std::string scenario;
    scenario::backend_kind backend = scenario::backend_kind::agent;
    scenario::scenario_params params;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t trials = 8;  ///< distinct trial seeds per pass
    std::string spans_out;   ///< traced mode: where to write one trial's spans
    std::string commit = "unknown";
    core::algorithm_mode mode = core::algorithm_mode::ordered;
};

[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr, "consensus_bench: %s\n", message.c_str());
    std::exit(2);
}

options parse_options(int argc, char** argv) {
    options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        const auto parsed = scenario::parse_param_flag(opt.params, argc, argv, i);
        if (parsed == scenario::flag_parse::consumed) continue;
        if (parsed == scenario::flag_parse::missing_value || i + 1 >= argc)
            usage_error("missing value for " + std::string(flag));
        const char* value = argv[++i];
        if (flag == "--scenario") {
            opt.scenario = value;
        } else if (flag == "--backend") {
            const auto backend = scenario::parse_backend(value);
            if (!backend) usage_error("unknown backend '" + std::string(value) + "'");
            opt.backend = *backend;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            if (std::string_view(value) != "0" && std::string_view(value) != "1")
                usage_error("--trace takes 0 or 1");
            opt.trace = std::string_view(value) == "1";
        } else if (flag == "--trials") {
            opt.trials = std::strtoull(value, nullptr, 10);
        } else if (flag == "--spans-out") {
            opt.spans_out = value;
        } else if (flag == "--commit") {
            opt.commit = value;
        } else {
            usage_error("unknown flag " + std::string(flag));
        }
    }
    if (opt.trials == 0) usage_error("--trials must be at least 1");
    if (opt.scenario == "plurality/ordered") {
        opt.mode = core::algorithm_mode::ordered;
    } else if (opt.scenario == "plurality/unordered") {
        opt.mode = core::algorithm_mode::unordered;
    } else if (opt.scenario == "plurality/improved") {
        opt.mode = core::algorithm_mode::improved;
    } else {
        usage_error("unsupported scenario '" + opt.scenario +
                    "' (plurality/{ordered,unordered,improved})");
    }
    if (opt.backend == scenario::backend_kind::batch)
        usage_error("the batch backend is not measured (agent|census|leap)");
    return opt;
}

// ---------------------------------------------------------------------------
// Expected answers and count fingerprints
// ---------------------------------------------------------------------------

/// The answer a correct trial must report: the workload's plurality opinion.
std::int64_t expected_answer(const options& opt, std::uint64_t trial_seed) {
    sim::rng setup(sim::derive_seed(trial_seed, scenario::scenario_setup_stream));
    return scenario::make_workload(opt.params, setup).plurality_opinion();
}

constexpr const char* answer_metric = "winner_opinion";

std::uint64_t counter_or_zero(const obs::snapshot& snap, const char* name) {
    const obs::sample* s = snap.find(name);
    return s == nullptr ? 0 : s->value;
}

/// Every count-valued quantity of a trial, in a fixed order: the convergence
/// outcome plus each count-valued obs sample.  Two runs of one seed must
/// produce equal fingerprints.
using fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

fingerprint make_fingerprint(bool converged, double parallel_time, std::uint64_t interactions,
                             const obs::snapshot& snap) {
    fingerprint fp;
    fp.emplace_back("converged", converged ? 1 : 0);
    fp.emplace_back("parallel_time.bits", std::bit_cast<std::uint64_t>(parallel_time));
    fp.emplace_back("interactions", interactions);
    for (const obs::sample& s : snap.samples()) {
        if (!obs::is_count_valued(s.kind)) continue;
        if (s.kind == obs::sample_kind::histogram) {
            fp.emplace_back(s.name + ".count", s.count);
            fp.emplace_back(s.name + ".sum", s.sum);
            for (std::size_t b = 0; b < s.buckets.size(); ++b)
                fp.emplace_back(s.name + ".bucket" + std::to_string(b), s.buckets[b]);
        } else {
            fp.emplace_back(s.name, s.value);
        }
    }
    return fp;
}

/// Empty when equal; otherwise names the first differing entry.
std::string fingerprint_difference(const fingerprint& a, const fingerprint& b) {
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < common; ++i) {
        if (a[i] != b[i])
            return a[i].first + " " + std::to_string(a[i].second) + " vs " + b[i].first + " " +
                   std::to_string(b[i].second);
    }
    if (a.size() != b.size())
        return "sample count " + std::to_string(a.size()) + " vs " + std::to_string(b.size());
    return {};
}

/// Leap conservation: every interaction took exactly one delta path.
std::optional<std::string> leap_conservation_violation(const obs::snapshot& snap) {
    const std::uint64_t total = counter_or_zero(snap, obs::m_interactions);
    const std::uint64_t paths = counter_or_zero(snap, obs::m_delta_deterministic) +
                                counter_or_zero(snap, obs::m_delta_grouped) +
                                counter_or_zero(snap, obs::m_delta_fallback) +
                                counter_or_zero(snap, obs::m_collisions) +
                                counter_or_zero(snap, obs::m_absorbed_fastpath);
    if (paths == total) return std::nullopt;
    return "leap conservation: deterministic+grouped+fallback+collisions+absorbed = " +
           std::to_string(paths) + " != interactions_total " + std::to_string(total);
}

// ---------------------------------------------------------------------------
// Untraced trial: the public scenario layer
// ---------------------------------------------------------------------------

struct untraced_trial {
    double wall_s = 0.0;
    double setup_s = 0.0;
    double parallel_time = 0.0;
    fingerprint counts;
    std::vector<std::string> violations;
};

untraced_trial run_untraced(const options& opt, const scenario::any_scenario& scn,
                            std::uint64_t trial_seed) {
    const auto start = steady::now();
    const scenario::scenario_outcome out = scn.run(opt.params, trial_seed, opt.backend);
    const auto end = steady::now();

    untraced_trial t;
    t.wall_s = seconds_between(start, end);
    t.setup_s = t.wall_s - out.wall_seconds;
    t.parallel_time = out.parallel_time;
    t.counts = make_fingerprint(out.converged, out.parallel_time, out.interactions, out.observed);

    if (!out.converged) {
        t.violations.push_back("did not converge within the default budget (parallel time " +
                               std::to_string(out.parallel_time) + ")");
    }
    const std::int64_t expected = expected_answer(opt, trial_seed);
    std::optional<double> got;
    for (const auto& m : out.metrics)
        if (m.name == answer_metric) got = m.value;
    if (!got || static_cast<std::int64_t>(*got) != expected) {
        t.violations.push_back(std::string(answer_metric) + " " +
                               (got ? std::to_string(static_cast<std::int64_t>(*got)) : "missing") +
                               " != expected " + std::to_string(expected));
    }
    if (opt.backend == scenario::backend_kind::leap) {
        if (auto v = leap_conservation_violation(out.observed)) t.violations.push_back(*v);
    }
    return t;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct span {
    const char* name;
    int parent;  ///< index into the span list, -1 for the root
    steady::time_point start;
    steady::time_point end;
};

/// In-memory span recorder: spans are written out only when the run ends.
class tracer {
public:
    int open(const char* name, int parent) {
        const auto now = steady::now();
        spans_.push_back({name, parent, now, now});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) { spans_[static_cast<std::size_t>(id)].end = steady::now(); }
    void add(const char* name, int parent, steady::time_point start, steady::time_point end) {
        spans_.push_back({name, parent, start, end});
    }

    struct totals {
        std::uint64_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;  ///< total minus the time covered by children
    };

    /// Count, total and self time per span name.
    [[nodiscard]] std::map<std::string, totals> by_name() const {
        std::vector<double> child_s(spans_.size(), 0.0);
        for (const span& s : spans_) {
            if (s.parent >= 0)
                child_s[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);
        }
        std::map<std::string, totals> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double d = seconds_between(spans_[i].start, spans_[i].end);
            totals& t = out[spans_[i].name];
            ++t.count;
            t.total_s += d;
            t.self_s += d - child_s[i];
        }
        return out;
    }

    /// Chrome trace-event JSON (chrome://tracing, Perfetto), one thread.
    void write_trace_events(std::ostream& os) const {
        const steady::time_point origin = spans_.empty() ? steady::now() : spans_.front().start;
        os << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span& s = spans_[i];
            char line[256];
            std::snprintf(line, sizeof line,
                          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f}",
                          i == 0 ? "" : ",", s.name, seconds_between(origin, s.start) * 1e6,
                          seconds_between(s.start, s.end) * 1e6);
            os << line;
        }
        os << "\n]}\n";
    }

private:
    std::vector<span> spans_;
};

// ---------------------------------------------------------------------------
// Traced trial: the scenario's steps, rebuilt from public functions
// ---------------------------------------------------------------------------

/// What the per-backend set-up step hands to the generic traced path: the
/// protocol, the initial configuration in the backend's form, the default
/// parallel-time budget and the expected answer.
template <class Protocol, class Initial>
struct initial_config {
    Protocol protocol;
    Initial initial;
    double budget;
    std::int64_t expected;
};

/// Census image of core::plurality_protocol::make_population — the same
/// initial configuration the plurality scenarios build for census backends.
std::vector<sim::census_entry<core::core_agent>> plurality_census(
    const core::protocol_config& cfg, const workload::opinion_distribution& dist) {
    std::vector<sim::census_entry<core::core_agent>> entries;
    for (std::uint32_t opinion = 1; opinion <= dist.k(); ++opinion) {
        const std::uint32_t support = dist.support_of(opinion);
        if (support == 0) continue;
        core::core_agent a;
        a.opinion = opinion;
        a.tokens = 1;
        a.role = core::agent_role::collector;
        a.stage = core::lifecycle_stage::init;
        if (cfg.mode == core::algorithm_mode::improved)
            a.prune_phase = -static_cast<std::int16_t>(cfg.prune_hours);
        entries.push_back({a, support});
    }
    return entries;
}

template <bool Census>
auto plurality_setup(core::algorithm_mode mode, const scenario::scenario_params& p,
                     sim::rng& gen) {
    const workload::opinion_distribution dist = scenario::make_workload(p, gen);
    const core::protocol_config cfg = core::protocol_config::make(mode, dist.n(), dist.k());
    const std::int64_t expected = dist.plurality_opinion();
    if constexpr (Census) {
        return initial_config{core::plurality_protocol{cfg}, plurality_census(cfg, dist),
                              cfg.default_time_budget(), expected};
    } else {
        return initial_config{core::plurality_protocol{cfg},
                              core::plurality_protocol::make_population(cfg, dist, gen),
                              cfg.default_time_budget(), expected};
    }
}

struct traced_trial {
    tracer trace;
    std::uint64_t interactions = 0;
    fingerprint counts;
    obs::snapshot observed;
    std::vector<std::string> violations;
};

/// Runs one traced trial: spans trial → setup {workload.build, sim.construct}
/// → converge {sim.run_for, converge.check} → readout.
template <class Sim, class Setup, class Done, class Answer>
traced_trial trace_one(const options& opt, std::uint64_t trial_seed, Setup setup, Done done,
                       Answer answer) {
    traced_trial t;
    tracer& tr = t.trace;
    const int trial = tr.open("trial", -1);
    const int setup_span = tr.open("setup", trial);

    const int build = tr.open("workload.build", setup_span);
    sim::rng gen(sim::derive_seed(trial_seed, scenario::scenario_setup_stream));
    auto init = setup(gen);
    tr.close(build);

    const int construct = tr.open("sim.construct", setup_span);
    Sim sim{std::move(init.protocol), std::move(init.initial),
            sim::derive_seed(trial_seed, scenario::scenario_run_stream)};
    tr.close(construct);
    tr.close(setup_span);

    const double budget = opt.params.time_budget > 0.0 ? opt.params.time_budget : init.budget;
    const int conv_span = tr.open("converge", trial);
    // converge() alternates observe → done → run_for → observe → ...; the
    // interval from the end of one predicate check to the next observer call
    // is one run_for batch.
    steady::time_point check_end = steady::now();
    bool first = true;
    const auto observe = [&](const Sim&) {
        const auto now = steady::now();
        if (!first) tr.add("sim.run_for", conv_span, check_end, now);
        first = false;
    };
    const auto timed_done = [&](const Sim& s) {
        const auto start = steady::now();
        const bool reached = done(s);
        check_end = steady::now();
        tr.add("converge.check", conv_span, start, check_end);
        return reached;
    };
    const sim::convergence_outcome conv =
        sim::converge(sim, timed_done, sim::interaction_budget(budget, sim.population_size()), 0,
                      observe);
    tr.close(conv_span);

    const int readout = tr.open("readout", trial);
    const std::int64_t got = conv.converged ? answer(sim) : 0;
    sim.collect_metrics(t.observed);
    tr.close(readout);
    tr.close(trial);

    t.interactions = conv.interactions;
    t.counts = make_fingerprint(conv.converged, conv.parallel_time, conv.interactions, t.observed);
    if (!conv.converged) t.violations.push_back("traced run did not converge");
    if (got != init.expected)
        t.violations.push_back("traced answer " + std::to_string(got) + " != expected " +
                               std::to_string(init.expected));
    return t;
}

template <class Sim>
std::int64_t plurality_winner(const Sim& s) {
    return sim::view::unanimous(s, [](const core::core_agent& a) {
               return a.winner ? a.opinion : 0u;
           }).value_or(0u);
}

template <class Protocol, class Codec, class AgentSetup, class CensusSetup, class Done,
          class Answer>
traced_trial trace_on_backend(const options& opt, std::uint64_t trial_seed,
                              AgentSetup agent_setup, CensusSetup census_setup, Done done,
                              Answer answer) {
    switch (opt.backend) {
        case scenario::backend_kind::census:
            return trace_one<sim::census_simulator<Protocol, Codec>>(opt, trial_seed,
                                                                     census_setup, done, answer);
        case scenario::backend_kind::leap:
            return trace_one<sim::leap_census_simulator<Protocol, Codec>>(
                opt, trial_seed, census_setup, done, answer);
        default:
            return trace_one<sim::simulation<Protocol>>(opt, trial_seed, agent_setup, done,
                                                        answer);
    }
}

traced_trial run_traced(const options& opt, std::uint64_t trial_seed) {
    return trace_on_backend<core::plurality_protocol, core::core_census_codec>(
        opt, trial_seed,
        [&](sim::rng& gen) { return plurality_setup<false>(opt.mode, opt.params, gen); },
        [&](sim::rng& gen) { return plurality_setup<true>(opt.mode, opt.params, gen); },
        [](const auto& s) {
            return sim::view::all_of(s, [](const core::core_agent& a) { return a.winner; });
        },
        [](const auto& s) { return plurality_winner(s); });
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct metric_def {
    const char* name;
    const char* unit;
    bool wall_clock;  ///< median over every trial; count-valued ones over the first pass
};

constexpr metric_def end_to_end_metrics[] = {
    {"time_to_consensus_s", "s", true},  {"setup_s", "s", true},
    {"parallel_time", "interactions/n", false}, {"success_rate", "ratio", false},
    {"peak_rss_mb", "MB", false},
};

constexpr metric_def layer_metrics[] = {
    {"workload.build_s", "s", true},
    {"sim.construct_s", "s", true},
    {"sim.run_for_s", "s", true},
    {"sim.interactions", "count", false},
    {"sim.ns_per_interaction", "ns", true},
    {"sim.rng_words_per_interaction", "words", false},
    {"census.fenwick_descents", "count", false},
    {"leap.run_length_s", "s", true},
    {"leap.margins_s", "s", true},
    {"leap.table_delta_s", "s", true},
    {"leap.collision_s", "s", true},
    {"leap.runs", "count", false},
    {"leap.collisions", "count", false},
    {"leap.mean_run_length", "interactions", false},
    {"leap.us_per_run", "us", true},
    {"leap.absorbed_interactions", "count", false},
    {"delta.grouped_share", "ratio", false},
    {"delta.deterministic_share", "ratio", false},
    {"delta.fallback_share", "ratio", false},
    {"delta.table_hit_ratio", "ratio", false},
    {"delta.table_misses", "count", false},
    {"census.occupied_hwm", "count", false},
    {"census.reachable_states", "count", false},
    {"converge.checks", "count", false},
    {"converge.check_s", "s", true},
    {"converge.check_share", "ratio", true},
    {"trace.overhead_ratio", "ratio", true},
};

bool is_wall_clock(std::string_view name) {
    for (const metric_def& m : end_to_end_metrics)
        if (name == m.name) return m.wall_clock;
    for (const metric_def& m : layer_metrics)
        if (name == m.name) return m.wall_clock;
    return false;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values of one traced trial.  The leap phase timers are the
/// library's own sampled estimates (every 64th run, scaled back up).
std::map<std::string, double> layer_values(const traced_trial& t, double untraced_wall_s) {
    const auto spans = t.trace.by_name();
    const auto total = [&spans](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.total_s;
    };
    const obs::snapshot& o = t.observed;
    const auto count = [&o](const char* name) {
        return static_cast<double>(counter_or_zero(o, name));
    };
    const auto timer = [&o](const char* name) {
        const obs::sample* s = o.find(name);
        return s == nullptr ? 0.0 : s->seconds;
    };
    const double interactions = static_cast<double>(t.interactions);
    const double run_for_s = total("sim.run_for");
    const double runs = count(obs::m_runs);
    const obs::sample* run_length = o.find(obs::m_run_length);
    const double hits = count(obs::m_table_hits);
    const double misses = count(obs::m_table_misses);
    const auto checks = spans.find("converge.check");

    std::map<std::string, double> v;
    v["workload.build_s"] = total("workload.build");
    v["sim.construct_s"] = total("sim.construct");
    v["sim.run_for_s"] = run_for_s;
    v["sim.interactions"] = interactions;
    v["sim.ns_per_interaction"] = ratio(run_for_s * 1e9, interactions);
    v["sim.rng_words_per_interaction"] = ratio(count(obs::m_rng_words), interactions);
    v["census.fenwick_descents"] = count(obs::m_fenwick_descents);
    v["leap.run_length_s"] = timer(obs::m_phase_run_length);
    v["leap.margins_s"] = timer(obs::m_phase_margins);
    v["leap.table_delta_s"] = timer(obs::m_phase_table);
    v["leap.collision_s"] = timer(obs::m_phase_collision);
    v["leap.runs"] = runs;
    v["leap.collisions"] = count(obs::m_collisions);
    v["leap.mean_run_length"] =
        run_length == nullptr ? 0.0
                              : ratio(static_cast<double>(run_length->sum),
                                      static_cast<double>(run_length->count));
    v["leap.us_per_run"] = ratio(run_for_s * 1e6, runs);
    v["leap.absorbed_interactions"] = count(obs::m_absorbed_fastpath);
    v["delta.grouped_share"] = ratio(count(obs::m_delta_grouped), interactions);
    v["delta.deterministic_share"] = ratio(count(obs::m_delta_deterministic), interactions);
    v["delta.fallback_share"] = ratio(count(obs::m_delta_fallback), interactions);
    v["delta.table_hit_ratio"] = ratio(hits, hits + misses);
    v["delta.table_misses"] = misses;
    v["census.occupied_hwm"] = count(obs::m_occupied_hwm);
    v["census.reachable_states"] = count(obs::m_reachable_states);
    v["converge.checks"] = checks == spans.end() ? 0.0 : static_cast<double>(checks->second.count);
    v["converge.check_s"] = total("converge.check");
    v["converge.check_share"] = ratio(total("converge.check"), total("converge"));
    v["trace.overhead_ratio"] = ratio(total("trial"), untraced_wall_s);
    return v;
}

double mean(const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return ratio(sum, static_cast<double>(values.size()));
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Resets the peak resident set (VmHWM) to the current one, so the next read
/// covers one trial.  Where the kernel refuses, reads stay cumulative.
void reset_peak_rss() {
    std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss survives exec, so it would report the launching
/// process's peak whenever that was larger.)
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string json_number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void print_provenance(const options& opt) {
    const auto& p = opt.params;
    std::printf(
        "{\"provenance\": {\"commit\": \"%s\", \"build_type\": \"%s\", \"plurality_obs\": %d, "
        "\"compiler\": \"%s\", \"nproc\": %u, \"scenario\": \"%s\", \"backend\": \"%s\", "
        "\"n\": %u, \"k\": %u, \"workload\": \"%s\", \"bias\": %u, \"dust\": %u, "
        "\"seed\": %" PRIu64 ", \"trials\": %zu, \"seconds\": %s, \"trace\": %d}}\n",
        opt.commit.c_str(), CONSENSUS_BENCH_BUILD_TYPE, PLURALITY_OBS,
#if defined(__clang__)
        "clang " __clang_version__,
#elif defined(__GNUC__)
        "gcc " __VERSION__,
#else
        "unknown",
#endif
        std::thread::hardware_concurrency(), opt.scenario.c_str(),
        scenario::backend_name(opt.backend), p.n, p.k, p.workload.c_str(), p.bias, p.dust,
        opt.seed, opt.trials, json_number(opt.seconds).c_str(), opt.trace ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
    if (std::string_view(CONSENSUS_BENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "consensus_bench: refusing to report from a %s build (Release only)\n",
                     CONSENSUS_BENCH_BUILD_TYPE);
        return 2;
    }
    if (!PLURALITY_OBS) {
        std::fprintf(stderr,
                     "consensus_bench: refusing to report from a PLURALITY_OBS=OFF build "
                     "(the leap phase and counter metrics would be missing)\n");
        return 2;
    }
    const options opt = parse_options(argc, argv);
    const scenario::any_scenario* scn = scenario::scenario_registry::instance().find(opt.scenario);
    if (scn == nullptr) usage_error("scenario '" + opt.scenario + "' is not registered");
    // The one-shot TSC calibration would otherwise land inside the first
    // trial's timed readout.
    (void)obs::ticks_per_second();
    print_provenance(opt);

    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool benchmark_error = false;
    std::vector<fingerprint> first_pass(opt.trials);
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, tracer::totals> first_spans;
    std::vector<double> fastest_wall(opt.trials, std::numeric_limits<double>::infinity());
    std::vector<double> fastest_setup = fastest_wall;

    const auto start = steady::now();
    for (std::size_t i = 0;; ++i) {
        // At least one full pass plus one repeat, then until the time is up.
        if (i > opt.trials && seconds_between(start, steady::now()) >= opt.seconds) break;
        const std::size_t index = i % opt.trials;
        const bool repeat = i >= opt.trials;
        const std::uint64_t trial_seed = sim::derive_seed(opt.seed, index);
        ++attempted;

        if (!repeat) reset_peak_rss();
        untraced_trial u = run_untraced(opt, *scn, trial_seed);
        std::vector<std::string> problems = std::move(u.violations);
        if (!repeat) {
            first_pass[index] = u.counts;
        } else if (const auto diff = fingerprint_difference(first_pass[index], u.counts);
                   !diff.empty()) {
            benchmark_error = true;
            problems.push_back("benchmark error: repeat of a seed is not deterministic: " + diff);
        }
        const auto record = [&](const std::string& name, double value) {
            if (!repeat || is_wall_clock(name)) samples[name].push_back(value);
        };
        if (!opt.trace) {
            fastest_wall[index] = std::min(fastest_wall[index], u.wall_s);
            fastest_setup[index] = std::min(fastest_setup[index], u.setup_s);
            record("parallel_time", u.parallel_time);
            record("peak_rss_mb", peak_rss_mb());
        } else {
            const traced_trial t = run_traced(opt, trial_seed);
            problems.insert(problems.end(), t.violations.begin(), t.violations.end());
            if (const auto diff = fingerprint_difference(u.counts, t.counts); !diff.empty())
                problems.push_back("traced run differs from the untraced run: " + diff);
            for (const auto& [name, value] : layer_values(t, u.wall_s)) record(name, value);
            if (i == 0) {
                first_spans = t.trace.by_name();
                if (!opt.spans_out.empty()) {
                    std::ofstream out(opt.spans_out);
                    t.trace.write_trace_events(out);
                }
            }
        }
        if (!problems.empty()) {
            ++failed;
            for (const std::string& p : problems)
                std::printf("violation: trial seed %" PRIu64 ": %s\n", trial_seed, p.c_str());
        }
    }

    std::map<std::string, double> values;
    std::vector<const metric_def*> reported;
    if (opt.trace) {
        for (const metric_def& m : layer_metrics) reported.push_back(&m);
        for (const auto& [name, t] : first_spans) {
            std::printf("span %-16s count %8" PRIu64 "  total %.6f s  self %.6f s\n",
                        name.c_str(), t.count, t.total_s, t.self_s);
        }
    } else {
        for (const metric_def& m : end_to_end_metrics) reported.push_back(&m);
        samples["time_to_consensus_s"] = fastest_wall;
        samples["setup_s"] = fastest_setup;
        samples["success_rate"] = {
            ratio(static_cast<double>(attempted - failed), static_cast<double>(attempted))};
    }
    for (const metric_def* m : reported) {
        const std::vector<double>& s = samples[m->name];
        // Each seed's fastest repeat is already robust to load; their mean
        // estimates the expected time to consensus, where a median over seeds
        // jumps between the modes of the convergence-time distribution.
        const bool mean_of_fastest =
            !opt.trace && std::string_view(m->name) == "time_to_consensus_s";
        values[m->name] = mean_of_fastest ? mean(s) : quantile(s, 0.5);
        std::printf("%-30s %-6s %-14.6g q1 %-14.6g q3 %-14.6g", m->name,
                    mean_of_fastest ? "mean" : "median", values[m->name], quantile(s, 0.25),
                    quantile(s, 0.75));
        // The highest whole percentile that still has ten samples above it.
        const int tail = s.size() > 20 ? static_cast<int>(100.0 - 1000.0 / s.size()) : 0;
        if (tail > 75) std::printf(" p%d %-14.6g", tail, quantile(s, tail / 100.0));
        std::printf(" %-14s (%zu samples)\n", m->unit, s.size());
    }
    if (opt.trace && opt.backend == scenario::backend_kind::leap) {
        const double phases = values["leap.run_length_s"] + values["leap.margins_s"] +
                              values["leap.table_delta_s"] + values["leap.collision_s"];
        std::printf("leap phase timers cover %.3f of sim.run_for_s (sampled estimate)\n",
                    ratio(phases, values["sim.run_for_s"]));
    }

    const bool correct = failed == 0 && !benchmark_error;
    std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < reported.size(); ++i) {
        line += (i == 0 ? "\"" : ", \"") + std::string(reported[i]->name) +
                "\": {\"value\": " + json_number(values[reported[i]->name]) +
                ", \"unit\": \"" + reported[i]->unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
}
