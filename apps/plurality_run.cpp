// plurality_run — the generic experiment CLI over the scenario registry.
//
// Executes any registered scenario ("run protocol X on workload W with
// population n to convergence, T trials, J threads") and emits a
// machine-readable JSON result document (schema "plurality_run/1").
//
//   plurality_run --list
//   plurality_run --list-metrics
//   plurality_run --scenario NAME [--n N] [--k K] [--workload W] [--bias B]
//                 [--dust D] [--fraction PCT] [--zipf-s S] [--sources C]
//                 [--time-budget T] [--backend agent|census|leap]
//                 [--trials T] [--seed S] [--threads J]
//                 [--out FILE.json] [--trace FILE.csv] [--trace-cadence C]
//                 [--metrics FILE.json] [--metrics-prom FILE.prom] [--progress]
//
// Determinism: the JSON document is a pure function of (scenario, params,
// trials, seed, backend).  --threads only changes wall-clock time; equal
// seeds give byte-identical documents at any thread count.  The same holds
// for the "deterministic" half of the --metrics sidecar; its "timing" half
// is wall-clock by design (see docs/OBSERVABILITY.md).
//
// Backends: --backend agent (default) simulates every agent individually,
// O(n) memory; --backend census simulates the state census (one counter per
// occupied state), O(S) memory — the backend for population sizes far
// beyond what per-agent storage can hold.  It samples whole collision-free
// runs as their pair-type contingency table where few states are occupied,
// and steps one executed interaction at a time elsewhere (see
// docs/ARCHITECTURE.md).  --backend leap is the census backend's old name:
// the same simulator, reported under that name.
//
// Malformed values fail with one line on stderr and exit status 2 (no usage
// dump): an unknown --backend, a --trace-cadence that is not a finite value
// > 0, a --fraction outside (0, 100), a --zipf-s or --time-budget that is not
// a finite value >= 0, and a count flag that is not a whole base-10 number
// in its range (0 to 2^32 - 1 for --n, --k, --bias, --dust, --sources; 0 to
// 2^64 - 1 for --seed, 1 to 2^64 - 1 for --trials, 0 to 1024 for --threads,
// where 0 means the hardware concurrency).  The run starts at most one
// worker thread per trial.
//
// Examples:
//   plurality_run --list
//   plurality_run --scenario plurality/ordered --n 1024 --k 4 --trials 20
//   plurality_run --scenario baselines/usd --n 2049 --k 5 --trials 30 --threads 4
//   plurality_run --scenario baselines/usd --n 100000000 --k 5 --backend census --trials 3
//   plurality_run --scenario epidemic/broadcast --n 100000 --trace spread.csv
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/catalogue.h"
#include "scenario/json_report.h"
#include "scenario/metrics_report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/trial_executor.h"

namespace {

using namespace plurality;

struct options {
    std::string scenario;
    bool list = false;
    bool list_metrics = false;
    scenario::scenario_params params;
    scenario::backend_kind backend = scenario::backend_kind::agent;
    std::size_t trials = 10;
    std::uint64_t seed = 42;
    std::size_t threads = 1;
    std::string out_path;    ///< empty = stdout
    std::string trace_path;  ///< empty = no trace
    double trace_cadence = 5.0;
    std::string metrics_path;       ///< empty = no JSON metrics sidecar
    std::string metrics_prom_path;  ///< empty = no Prometheus exposition
    bool progress = false;          ///< stderr heartbeat while trials run
};

/// Seconds between --progress heartbeat lines.
constexpr double progress_interval_seconds = 2.0;

/// Largest --threads value accepted.
constexpr std::uint64_t max_threads = 1024;

[[noreturn]] void usage(const char* argv0, int exit_code) {
    std::fprintf(stderr,
                 "usage: %s --list\n"
                 "       %s --list-metrics\n"
                 "       %s --scenario NAME [--n N] [--k K] [--workload "
                 "bias1|uniform|zipf|dominant|two-heavy]\n"
                 "          [--bias B] [--dust D] [--fraction PCT] [--zipf-s S] [--sources C]\n"
                 "          [--time-budget T] [--backend %s]\n"
                 "          [--trials T] [--seed S] [--threads J]\n"
                 "          [--out FILE.json] [--trace FILE.csv] [--trace-cadence C]\n"
                 "          [--metrics FILE.json] [--metrics-prom FILE.prom] [--progress]\n",
                 argv0, argv0, argv0, scenario::backend_list());
    std::exit(exit_code);
}

/// Rejects a malformed flag value: one line on stderr, exit status 2, no
/// usage dump — scripts grep stderr for these lines.
[[noreturn]] void reject(const char* flag, const char* text, const std::string& expected) {
    std::fprintf(stderr, "invalid %s '%s' (expected %s)\n", flag, text, expected.c_str());
    std::exit(2);
}

/// A --trials, --seed or --threads value: a whole base-10 number from `min`
/// to `max`, the digits-only rule --n follows.
std::uint64_t count_value(const char* flag, const char* text, std::uint64_t min = 0,
                          std::uint64_t max = UINT64_MAX) {
    const auto parsed = scenario::parse_whole_number(text, max);
    if (!parsed || *parsed < min)
        reject(flag, text,
               "a whole number from " + std::to_string(min) + " to " + std::to_string(max));
    return *parsed;
}

options parse(int argc, char** argv) {
    options opt;
    for (int i = 1; i < argc; ++i) {
        switch (scenario::parse_param_flag(opt.params, argc, argv, i)) {
            case scenario::flag_parse::consumed: continue;
            case scenario::flag_parse::missing_value: usage(argv[0], 2);
            case scenario::flag_parse::invalid_value:
                reject(argv[i - 1], argv[i], scenario::param_flag_expectation(argv[i - 1]));
            case scenario::flag_parse::not_mine: break;
        }
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0], 2);
            return argv[++i];
        };
        if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--list-metrics") {
            opt.list_metrics = true;
        } else if (arg == "--scenario") {
            opt.scenario = value();
        } else if (arg == "--backend") {
            const char* name = value();
            const auto backend = scenario::parse_backend(name);
            if (!backend.has_value()) {
                // One line, no usage dump: scripts grepping stderr get the
                // valid names directly.
                std::fprintf(stderr, "unknown backend '%s' (valid backends: %s)\n", name,
                             scenario::backend_list());
                std::exit(2);
            }
            opt.backend = *backend;
        } else if (arg == "--trials") {
            opt.trials = count_value(arg.c_str(), value(), 1);
        } else if (arg == "--seed") {
            opt.seed = count_value(arg.c_str(), value());
        } else if (arg == "--threads") {
            opt.threads = count_value(arg.c_str(), value(), 0, max_threads);
        } else if (arg == "--out") {
            opt.out_path = value();
        } else if (arg == "--trace") {
            opt.trace_path = value();
        } else if (arg == "--trace-cadence") {
            // Strict parse: a silently-accepted garbage cadence (strtod
            // returning 0) would sample every parallel-time unit instead of
            // what the caller asked for.
            const char* text = value();
            const auto cadence = scenario::parse_finite_number(text);
            if (!cadence || *cadence <= 0.0)
                reject(arg.c_str(), text, "a finite value > 0, in parallel-time units");
            opt.trace_cadence = *cadence;
        } else if (arg == "--metrics") {
            opt.metrics_path = value();
        } else if (arg == "--metrics-prom") {
            opt.metrics_prom_path = value();
        } else if (arg == "--progress") {
            opt.progress = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            usage(argv[0], 2);
        }
    }
    return opt;
}

int list_scenarios() {
    for (const auto& s : scenario::scenario_registry::instance().all()) {
        std::printf("%-24s %-12s %s\n", s.name().c_str(), s.family().c_str(),
                    s.description().c_str());
    }
    return 0;
}

int list_metrics() {
    for (const auto& m : plurality::obs::metric_catalogue()) {
        std::printf("%-40s %-10s %-28s %s\n", m.name, m.kind, m.backends, m.help);
    }
    return 0;
}

/// Writes `content` to `path`, or reports the open failure and returns
/// false.
bool write_file(const std::string& path, const std::string& content, const char* what) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s file '%s'\n", what, path.c_str());
        return false;
    }
    out << content;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = parse(argc, argv);
    if (opt.list) return list_scenarios();
    if (opt.list_metrics) return list_metrics();
    if (opt.scenario.empty()) usage(argv[0], 2);

    const auto* s = scenario::scenario_registry::instance().find(opt.scenario);
    if (s == nullptr) {
        std::fprintf(stderr, "unknown scenario '%s'; try --list\n", opt.scenario.c_str());
        return 1;
    }

    try {
        const sim::trial_executor executor{opt.threads};
        scenario::run_options run_opts;
        if (opt.progress) {
            run_opts.progress_interval = progress_interval_seconds;
            run_opts.progress_label = opt.scenario;
        }
        const auto result = scenario::run_scenario_trials(*s, opt.params, opt.trials, opt.seed,
                                                          executor, opt.backend, run_opts);

        if (!opt.trace_path.empty()) {
            // Trace is a re-run of trial 0's exact stream (same seed, same
            // trajectory), with every metric sampled on the cadence grid.
            std::ofstream trace(opt.trace_path);
            if (!trace) {
                std::fprintf(stderr, "cannot open trace file '%s'\n", opt.trace_path.c_str());
                return 1;
            }
            (void)s->run_traced(opt.params, sim::derive_seed(opt.seed, 0), opt.trace_cadence,
                                trace, opt.backend);
        }

        std::ostringstream doc;
        scenario::write_json_report(doc, *s, opt.params, opt.seed, result, opt.backend);
        if (opt.out_path.empty()) {
            std::cout << doc.str();
        } else if (!write_file(opt.out_path, doc.str(), "output")) {
            return 1;
        }

        if (!opt.metrics_path.empty()) {
            std::ostringstream sidecar;
            scenario::write_metrics_report(sidecar, *s, opt.params, opt.seed, result, opt.backend);
            if (!write_file(opt.metrics_path, sidecar.str(), "metrics")) return 1;
        }
        if (!opt.metrics_prom_path.empty()) {
            std::ostringstream prom;
            scenario::write_prometheus_report(prom, *s, result, opt.backend);
            if (!write_file(opt.metrics_prom_path, prom.str(), "metrics")) return 1;
        }

        std::fprintf(stderr, "%s [%s]: %zu/%zu converged, %zu/%zu correct, mean time %.1f\n",
                     s->name().c_str(), scenario::backend_name(opt.backend),
                     result.summary.converged, result.summary.trials, result.summary.correct,
                     result.summary.trials, result.summary.time_stats.mean);
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
