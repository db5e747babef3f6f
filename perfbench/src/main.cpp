/**
 * @file
 * ufc_perfbench: runs one benchmark workload for a fixed time and prints
 * what it measured as one JSON line (the last line of stdout).
 *
 *   ufc_perfbench --workload <ckks_dse|serve_warm>
 *                 --seed N --seconds S --trace 0|1 [--work-dir DIR]
 *                 [--inject-failures K] [--inject-op-failures K]
 *                 [--dump-inputs]
 *
 * Exit status: 0 when every unit of work succeeded and every check held,
 * 1 when something failed (the JSON line is still printed), 2 on a usage
 * error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/error.h"
#include "harness.h"
#include "serve/json.h"

using namespace perfbench;
using ufc::serve::JsonValue;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ufc_perfbench: %s\nusage: ufc_perfbench --workload W "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--inject-failures K] [--inject-op-failures K] "
                 "[--dump-inputs]\n",
                 msg);
    return 2;
}

void
dumpInputs(const Options &opt)
{
    std::printf("{\"serve_schedule\":\"%s\",\"substrate_inputs\":\"%s\"}\n",
                serveScheduleDigest(opt.seed).c_str(),
                substrateInputDigest(opt.seed).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--dump-inputs") {
            opt.dumpInputs = true;
        } else if (!hasValue) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = argv[++i];
        } else if (a == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace") {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (a == "--work-dir") {
            opt.workDir = argv[++i];
        } else if (a == "--inject-failures") {
            opt.injectFailures = std::atoi(argv[++i]);
        } else if (a == "--inject-op-failures") {
            opt.injectOpFailures = std::atoi(argv[++i]);
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (opt.dumpInputs) {
        dumpInputs(opt);
        return 0;
    }
    if (opt.seconds <= 0.0)
        return usage("--seconds must be positive");

    Report rep;
    try {
        if (opt.workload == "ckks_dse")
            runCkksDse(opt, rep);
        else if (opt.workload == "serve_warm")
            runServeWarm(opt, rep);
        else
            return usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        rep.check(false, std::string("aborted: ") + e.what());
    }

    JsonValue metrics = JsonValue::makeObject();
    for (const auto &[name, vu] : rep.metrics) {
        rep.check(std::isfinite(vu.first), name + " is not finite");
        JsonValue m = JsonValue::makeObject();
        m.set("value", JsonValue::makeDouble(
                           std::isfinite(vu.first) ? vu.first : 0.0));
        m.set("unit", JsonValue::makeString(vu.second));
        metrics.set(name, m);
    }
    JsonValue paper = JsonValue::makeObject();
    for (const auto &[name, v] : rep.paperSim) {
        rep.check(std::isfinite(v), name + " is not finite");
        paper.set(name, JsonValue::makeDouble(std::isfinite(v) ? v : 0.0));
    }
    JsonValue errors = JsonValue::makeArray();
    for (std::size_t i = 0; i < rep.errors.size() && i < 20; ++i)
        errors.push(JsonValue::makeString(rep.errors[i]));
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(rep.digest));

    JsonValue out = JsonValue::makeObject();
    out.set("workload", JsonValue::makeString(opt.workload));
    out.set("correct", JsonValue::makeBool(rep.errors.empty()));
    out.set("attempted", JsonValue::makeInt(
                             static_cast<ufc::i64>(rep.attempted)));
    out.set("failed",
            JsonValue::makeInt(static_cast<ufc::i64>(rep.failed)));
    out.set("digest", JsonValue::makeString(digest));
    out.set("errors", errors);
    out.set("metrics", metrics);
    out.set("paper_sim", paper);

    for (const std::string &line : rep.notes)
        std::printf("%s\n", line.c_str());
    std::printf("%s\n", out.dump().c_str());
    return rep.errors.empty() ? 0 : 1;
}
