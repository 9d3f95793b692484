// plurality_lab — a small interactive driver over the paper's three
// tournament protocols, for exploring instances without writing code.
//
//   plurality_lab --mode ordered|unordered|improved
//                 --n <agents> --k <opinions>
//                 --workload bias1|uniform|zipf|dominant|two-heavy
//                 --trials <t> --seed <s>
//                 [--bias <b>] [--dust <d>] [--fraction <pct>]
//                 [--trace out.csv]
//
// Everything is a thin veneer over the scenario layer: the mode picks a
// registered scenario, the workload flags fill a scenario_params block, and
// --trace reuses the scenario's own metric extractors as time series.  For
// the full parameter surface (thread fan-out, JSON documents, every
// registered family) use plurality_run.
//
// Examples:
//   plurality_lab --mode improved --n 4096 --workload dominant --dust 16
//   plurality_lab --mode ordered --n 1024 --k 8 --trials 20
//   plurality_lab --mode unordered --n 2048 --k 4 --trace run.csv
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/trial_executor.h"

namespace {

using namespace plurality;

struct options {
    std::string mode = "ordered";
    scenario::scenario_params params;
    std::size_t trials = 5;
    std::uint64_t seed = 42;
    std::string trace_path;
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--mode ordered|unordered|improved] [--n N] [--k K]\n"
                 "          [--workload bias1|uniform|zipf|dominant|two-heavy] [--bias B]\n"
                 "          [--dust D] [--fraction PCT] [--trials T] [--seed S]\n"
                 "          [--trace FILE.csv]\n",
                 argv0);
    std::exit(2);
}

/// A --trials or --seed value: digits only, like --n — a strtoul cast would
/// run zero trials for "abc" and wrap "-1" to the largest seed.
std::uint64_t count_value(const char* flag, const char* text) {
    const auto count = scenario::parse_whole_number(text);
    if (!count) {
        std::fprintf(stderr, "invalid %s '%s' (expected a whole number from 0 to %" PRIu64 ")\n",
                     flag, text, UINT64_MAX);
        std::exit(2);
    }
    return *count;
}

options parse(int argc, char** argv) {
    options opt;
    opt.params.n = 1024;
    opt.params.k = 4;
    for (int i = 1; i < argc; ++i) {
        switch (scenario::parse_param_flag(opt.params, argc, argv, i)) {
            case scenario::flag_parse::consumed: continue;
            case scenario::flag_parse::missing_value: usage(argv[0]);
            case scenario::flag_parse::invalid_value:
                std::fprintf(stderr, "invalid %s '%s' (expected %s)\n", argv[i - 1], argv[i],
                             scenario::param_flag_expectation(argv[i - 1]));
                std::exit(2);
            case scenario::flag_parse::not_mine: break;
        }
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--mode") {
            opt.mode = value();
            if (opt.mode != "ordered" && opt.mode != "unordered" && opt.mode != "improved")
                usage(argv[0]);
        } else if (arg == "--trials") {
            opt.trials = count_value(arg.c_str(), value());
        } else if (arg == "--seed") {
            opt.seed = count_value(arg.c_str(), value());
        } else if (arg == "--trace") {
            opt.trace_path = value();
        } else {
            usage(argv[0]);
        }
    }
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = parse(argc, argv);

    const auto* s = scenario::scenario_registry::instance().find("plurality/" + opt.mode);
    if (s == nullptr) {
        std::fprintf(stderr, "scenario plurality/%s is not registered\n", opt.mode.c_str());
        return 2;
    }
    std::printf("scenario=%s n=%u k=%u workload=%s\n", s->name().c_str(), opt.params.n,
                opt.params.k, opt.params.workload.c_str());

    try {
        const sim::trial_executor executor{1};
        const auto result =
            scenario::run_scenario_trials(*s, opt.params, opt.trials, opt.seed, executor);
        std::printf("correct %zu/%zu, parallel time mean %.0f (min %.0f, max %.0f)\n",
                    result.summary.correct, result.summary.trials, result.summary.time_stats.mean,
                    result.summary.time_stats.min, result.summary.time_stats.max);

        if (!opt.trace_path.empty()) {
            // Re-run trial 0's exact stream with the scenario metrics
            // sampled every 5 parallel-time units.
            std::ofstream out(opt.trace_path);
            if (!out) {
                std::fprintf(stderr, "cannot open trace file '%s'\n", opt.trace_path.c_str());
                return 1;
            }
            (void)s->run_traced(opt.params, sim::derive_seed(opt.seed, 0), 5.0, out);
            std::printf("trace written to %s\n", opt.trace_path.c_str());
        }
        return result.summary.correct == result.summary.trials ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
