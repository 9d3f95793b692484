// The unified scenario abstraction: "run protocol X on workload W with
// population n to convergence" behind one type-erased interface.
//
// A scenario bundles what every protocol family in this repository needs to
// be executable from the generic experiment CLI (apps/plurality_run) and the
// multi-trial runner (scenario/runner.h):
//
//   * a protocol factory            (make_protocol),
//   * an initial-census builder     (make_census — every backend; the agent
//     backend lays it out as shuffled agents with sim::expand_census),
//   * a convergence predicate       (converged),
//   * a correctness predicate       (correct),
//   * a parallel-time budget        (time_budget),
//   * named metric extractors       (metrics) — also the rows of
//     `--trace` recordings.
//
// Every scenario runs on any simulation backend (see docs/ARCHITECTURE.md):
//
//   * backend_kind::agent  — sim::simulation, one struct per agent, O(n)
//     memory; the default.
//   * backend_kind::census — sim::census_simulator, one counter per occupied
//     state, O(S) memory; the large-n backend (n up to 10⁹), which samples
//     whole collision-free runs as their state-pair contingency table or
//     steps one executed interaction at a time, whichever its cost model
//     finds cheaper for the current census.
//   * backend_kind::leap   — the same simulator under its old name, kept
//     until the frozen benchmark stops naming it.
//
// The predicates and metric extractors are *templates* that call the
// family's readouts, which its header writes once against the shared
// weighted-state read API (sim/population_view.h).  They see two types: the
// agent simulation and the census simulator.
//
// The `scenario_spec` concept captures that shape for a concrete protocol
// type; `any_scenario` type-erases it so registries, CLIs and tests can hold
// heterogeneous scenarios in one container.  A registered family is ~40
// lines (see scenario/builtin_*.cpp); everything else — seeding, the
// convergence loop, tracing, trial fan-out, JSON reporting — is shared.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/heartbeat.h"
#include "obs/snapshot.h"
#include "scenario/trace_recorder.h"
#include "sim/census_simulator.h"
#include "sim/census_store.h"
#include "sim/convergence.h"
#include "sim/population_view.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "workload/opinion_distribution.h"

namespace plurality::scenario {

/// Which simulation backend executes a trial.  All are deterministic per
/// seed, and all simulate the same Markov chain — outcome *distributions*
/// agree — but their random streams differ, so a given seed's trajectory is
/// backend-specific.
enum class backend_kind : std::uint8_t {
    agent,   ///< sim::simulation — per-agent vector, O(n) memory
    census,  ///< sim::census_simulator — state counters, O(S) memory
    /// Retired: no simulator backs it, `parse_backend` rejects the name and
    /// `any_scenario::run` throws on it.  The enumerator stays only because
    /// the benchmark program (consensus_bench/consensus_bench.cpp, frozen
    /// with BENCHMARK.json) still compares against it.
    batch,
    /// The census backend's old name: it builds the same sim::census_simulator
    /// and differs only in the name reports carry.  It stays until the
    /// frozen benchmark, which runs a workload under each name, changes.
    leap
};

/// CLI/JSON name of a backend ("agent" / "census" / "leap"; "batch" for the
/// retired enumerator).
[[nodiscard]] const char* backend_name(backend_kind backend) noexcept;

/// Parses a backend name; nullopt on anything unknown.
[[nodiscard]] std::optional<backend_kind> parse_backend(std::string_view name) noexcept;

/// Every name `parse_backend` accepts, pipe-separated ("agent|census|leap") —
/// the single source of truth for CLI error messages and usage strings.
[[nodiscard]] const char* backend_list() noexcept;

/// Parameter block shared by every scenario; each scenario reads the subset
/// it understands and ignores the rest.  All fields have CLI flags.
struct scenario_params {
    std::uint32_t n = 1024;          ///< population size
    std::uint32_t k = 2;             ///< number of opinions (plurality families)
    std::string workload = "bias1";  ///< bias1 | uniform | zipf | dominant | two-heavy
    std::uint32_t bias = 1;          ///< support gap (workloads and majority families)
    std::uint32_t dust = 8;          ///< insignificant opinions (dominant / two-heavy)
    double fraction = 0.5;           ///< dominant opinion's share (dominant workload)
    double zipf_s = 1.4;             ///< Zipf exponent (zipf workload)
    std::uint32_t sources = 1;       ///< initially informed agents (epidemic)
    double time_budget = 0.0;        ///< parallel-time cutoff; 0 = scenario default
};

/// Builds the opinion distribution a params block describes.  Random
/// workloads (uniform, zipf) draw from `gen`, so each trial sees its own
/// instance of the same regime.  Throws std::invalid_argument on an unknown
/// workload name.
[[nodiscard]] workload::opinion_distribution make_workload(const scenario_params& params,
                                                           sim::rng& gen);

/// The one-line error an agent-backend trial raises when its population does
/// not fit in memory: it names n, the bytes the agent states need
/// (n × `agent_bytes`) and the backends whose memory is O(S) instead.
[[nodiscard]] std::runtime_error agent_population_too_large(std::uint64_t n,
                                                            std::size_t agent_bytes);

/// Result of offering one argv flag to the shared scenario_params parser.
enum class flag_parse {
    not_mine,       ///< not a scenario_params flag; caller should try its own
    consumed,       ///< flag and its value consumed, `i` advanced
    missing_value,  ///< recognized flag at the end of argv; caller should error
    invalid_value   ///< value rejected, params unchanged, `i` advanced to it
};

/// Parses the scenario_params CLI flag at `argv[i]` (--n, --k, --workload,
/// --bias, --dust, --fraction, --zipf-s, --sources, --time-budget), shared
/// by every driver that exposes the parameter surface (plurality_run,
/// consensus_bench).  The count flags (--n, --k, --bias, --dust, --sources)
/// take a whole base-10 number that fits `std::uint32_t` — digits only, no
/// sign.  The real-valued flags take a finite number with nothing after it:
/// `--fraction` in percent, strictly between 0 and 100; `--zipf-s` and
/// `--time-budget` at least 0.  Anything else is `invalid_value` rather than
/// a silently wrapped, truncated or defaulted value.
[[nodiscard]] flag_parse parse_param_flag(scenario_params& params, int argc, char** argv, int& i);

/// What the scenario_params flag `flag` accepts, for the one-line rejection
/// of an `invalid_value` ("a whole number from 0 to 4294967295").
[[nodiscard]] const char* param_flag_expectation(std::string_view flag) noexcept;

/// A whole base-10 number from 0 to `max`: digits only — no sign, no
/// whitespace, no trailing characters — so that `5000000000` or `-5` cannot
/// wrap into a plausible count the way a strtoul cast does.  Every count
/// flag follows this rule.
[[nodiscard]] std::optional<std::uint64_t> parse_whole_number(
    const char* text, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) noexcept;

/// A finite real number (strtod syntax) with nothing after it; nullopt for
/// garbage, trailing characters, infinities, NaN and out-of-range values.
[[nodiscard]] std::optional<double> parse_finite_number(const char* text) noexcept;

/// One named measurement extracted from a final (or in-flight) configuration.
struct metric {
    std::string name;
    double value = 0.0;
};

/// Scenario-agnostic outcome of one trial.
struct scenario_outcome {
    bool converged = false;  ///< convergence predicate held within the budget
    bool correct = false;    ///< ... and the output is the designated right one
    double parallel_time = 0.0;
    std::uint64_t interactions = 0;
    std::vector<metric> metrics;  ///< final values of the scenario's extractors
    /// Backend instrumentation read out at the end of the trial (src/obs/).
    /// Count-valued samples are deterministic per (seed, backend); timer
    /// samples are wall-clock measurements and must never enter the
    /// deterministic report (see scenario/json_report.cpp).
    obs::snapshot observed;
    double wall_seconds = 0.0;  ///< wall-clock duration of the trial
};

/// Per-trial execution options orthogonal to the scenario parameters: they
/// alter what a run *records or reports*, never its trajectory.  The outcome
/// is byte-identical for any combination of these options.
struct run_options {
    /// Trace-row cadence in parallel-time units (<= 0 selects the
    /// recorder default of 1.0).  Only read when `trace_csv` is set.
    double trace_cadence = 0.0;
    /// Destination for the traced metric series as CSV; nullptr = no trace.
    std::ostream* trace_csv = nullptr;
    /// Minimum seconds between progress heartbeat lines; <= 0 disables the
    /// heartbeat entirely (the default).
    double progress_interval = 0.0;
    /// Label prefixed to heartbeat lines (scenario name, trial index, ...).
    std::string progress_label;
};

/// The structured shape a concrete scenario implementation must have.
/// Methods are non-const so a spec may cache per-run state (typically the
/// workload instance built inside make_protocol, consulted by correct());
/// every run operates on a fresh copy of the spec.
///
/// `converged`, `correct` and `metrics` must accept both simulator types —
/// the agent simulation and the census simulator — so in practice they are
/// member templates that call the family's readouts (population-view
/// templates in the family's header).  `make_census` is
/// the one initial configuration a spec writes: the census backend deposits
/// it as it is (which keeps its runs O(S): no per-agent vector is ever
/// materialized), and the agent backend expands it into shuffled agents
/// (sim::expand_census), so every backend starts from the same
/// configuration.  The agent type must be a `sim::census_agent` —
/// padding-free, since a census state is its bytes.
template <class S>
concept scenario_spec =
    sim::protocol<typename S::protocol_t> && std::copy_constructible<S> &&
    sim::census_agent<typename S::protocol_t::agent_t> &&
    requires(S s, const scenario_params& p, sim::rng& gen,
             const sim::simulation<typename S::protocol_t>& asim,
             const sim::census_simulator<typename S::protocol_t>& csim) {
        { s.make_protocol(p, gen) } -> std::same_as<typename S::protocol_t>;
        {
            s.make_census(p, gen)
        } -> std::same_as<std::vector<sim::census_entry<typename S::protocol_t::agent_t>>>;
        { s.converged(asim) } -> std::convertible_to<bool>;
        { s.correct(asim) } -> std::convertible_to<bool>;
        { s.metrics(asim) } -> std::convertible_to<std::vector<metric>>;
        { s.converged(csim) } -> std::convertible_to<bool>;
        { s.correct(csim) } -> std::convertible_to<bool>;
        { s.metrics(csim) } -> std::convertible_to<std::vector<metric>>;
        { s.time_budget(p) } -> std::convertible_to<double>;
    };

/// The seed streams of sim/rng.h under the names the benchmark program
/// reads.  Every backend uses the same setup stream — a trial seed fixes one
/// initial configuration regardless of backend — and each consumes the run
/// stream its own way.
inline constexpr std::uint64_t scenario_setup_stream = sim::setup_stream;
inline constexpr std::uint64_t scenario_run_stream = sim::run_stream;

/// Type-erased scenario: owns a name, family and description plus the erased
/// spec.  Copy is cheap (shared immutable model).
class any_scenario {
public:
    template <scenario_spec S>
    any_scenario(std::string name, std::string family, std::string description, S spec)
        : name_(std::move(name)),
          family_(std::move(family)),
          description_(std::move(description)),
          model_(std::make_shared<model<S>>(std::move(spec))) {}

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::string& family() const noexcept { return family_; }
    [[nodiscard]] const std::string& description() const noexcept { return description_; }

    /// Runs one trial on the chosen backend.  Fully deterministic in
    /// `(seed, backend)`: `options` — tracing (every metric sampled each
    /// `trace_cadence` parallel-time units, first row at time 0, written as
    /// CSV to `trace_csv`) and the progress heartbeat — never change the
    /// trajectory or the outcome.  Throws std::invalid_argument on the
    /// retired `backend_kind::batch`.
    [[nodiscard]] scenario_outcome run(const scenario_params& params, std::uint64_t seed,
                                       backend_kind backend = backend_kind::agent,
                                       const run_options& options = {}) const {
        return model_->run(params, seed, backend, options);
    }

private:
    struct iface {
        virtual ~iface() = default;
        [[nodiscard]] virtual scenario_outcome run(const scenario_params& params,
                                                   std::uint64_t seed, backend_kind backend,
                                                   const run_options& options) const = 0;
    };

    template <class S>
    struct model final : iface {
        explicit model(S spec) : spec_(std::move(spec)) {}

        [[nodiscard]] scenario_outcome run(const scenario_params& params, std::uint64_t seed,
                                           backend_kind backend,
                                           const run_options& options) const override {
            if (params.n < 2)
                throw std::invalid_argument("scenario requires a population of n >= 2");
            using protocol_t = typename S::protocol_t;
            S spec = spec_;  // fresh per-run state
            sim::rng setup(sim::derive_seed(seed, sim::setup_stream));
            auto protocol = spec.make_protocol(params, setup);
            const std::uint64_t run_seed = sim::derive_seed(seed, sim::run_stream);
            switch (backend) {
                case backend_kind::agent: {
                    std::vector<typename protocol_t::agent_t> agents;
                    try {
                        agents = sim::expand_census(spec.make_census(params, setup), setup);
                    } catch (const std::bad_alloc&) {
                        throw agent_population_too_large(params.n,
                                                         sizeof(typename protocol_t::agent_t));
                    }
                    sim::simulation<protocol_t> sim{std::move(protocol), std::move(agents),
                                                    run_seed};
                    return drive(spec, params, sim, options);
                }
                case backend_kind::census:
                case backend_kind::leap: {
                    sim::census_simulator<protocol_t> sim{
                        std::move(protocol), spec.make_census(params, setup), run_seed};
                    return drive(spec, params, sim, options);
                }
                case backend_kind::batch: break;
            }
            throw std::invalid_argument("no simulator for this backend (batch was removed)");
        }

        /// The backend-agnostic part of a trial: budget derivation, the
        /// convergence loop and its one observer (trace rows and heartbeat),
        /// wall timing, instrumentation readout, and outcome packaging.
        template <class SimT>
        [[nodiscard]] static scenario_outcome drive(S& spec, const scenario_params& params,
                                                    SimT& sim, const run_options& options) {
            const double budget = params.time_budget > 0.0 ? params.time_budget
                                                           : spec.time_budget(params);
            const auto max_interactions =
                sim::interaction_budget(budget, sim.population_size());

            // The observer records a trace row when one is due and ticks the
            // heartbeat; neither touches the simulation, so options never
            // perturb the trajectory.
            std::optional<trace_recorder> trace;
            if (options.trace_csv != nullptr) trace.emplace(options.trace_cadence);
            std::optional<obs::heartbeat> pulse;
            if (options.progress_interval > 0.0)
                pulse.emplace(options.progress_label, max_interactions,
                              options.progress_interval);

            const auto wall_start = std::chrono::steady_clock::now();
            const auto conv = sim::converge(
                sim, [&spec](const SimT& s) { return spec.converged(s); }, max_interactions, 0,
                [&spec, &trace, &pulse](const SimT& s) {
                    if (trace && trace->due(s.parallel_time()))
                        trace->record(s.parallel_time(), spec.metrics(s));
                    if (pulse) pulse->tick(s.interactions(), sim::occupied_states_or_zero(s));
                });
            const auto wall_end = std::chrono::steady_clock::now();
            if (trace) trace->write_csv(*options.trace_csv);
            if (pulse)
                pulse->finish(sim.interactions(), sim::occupied_states_or_zero(sim));

            scenario_outcome out;
            out.converged = conv.converged;
            out.parallel_time = conv.parallel_time;
            out.interactions = conv.interactions;
            out.correct = conv.converged && spec.correct(sim);
            out.metrics = spec.metrics(sim);
            out.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
            sim.collect_metrics(out.observed);
            return out;
        }

        S spec_;
    };

    std::string name_;
    std::string family_;
    std::string description_;
    std::shared_ptr<const iface> model_;
};

}  // namespace plurality::scenario
