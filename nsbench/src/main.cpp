// nsbench: the repository benchmark program.
//
//   nsbench --workload lowcf|highcf|service --seed N --seconds S --trace 0|1
//           [--git-sha SHA] [--out-dir DIR]
//
// Runs one workload for S seconds, checks every product against
// reference_spgemm, and prints as its last stdout line one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end metrics; with --trace 1 they are the per-layer
// metrics of a traced run, whose spans are written to DIR in the Chrome
// trace-event format. The full report (environment, input descriptors,
// sample counts) is written to DIR as JSON. Exits 1 when any product is
// wrong or any request fails. See NOTES.md for the workloads and metrics.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "env.hpp"
#include "inputs.hpp"

namespace nsbench {
namespace {

struct SchemaEntry {
    std::string name;
    std::string unit;
};

const std::vector<SchemaEntry>& end_to_end_schema()
{
    static const std::vector<SchemaEntry> s = {
        {"setup_s", "s"},          {"gflops", "GFLOP/s"},   {"gflops_1t", "GFLOP/s"},
        {"req_p50_ms", "ms"},      {"req_p99_ms", "ms"},    {"req_per_s", "1/s"},
        {"peak_mb", "MB"},         {"sim_gflops", "GFLOP/s"}, {"sim_peak_mb", "MB"},
    };
    return s;
}

const std::vector<SchemaEntry>& per_layer_schema()
{
    static const std::vector<SchemaEntry> s = [] {
        std::vector<SchemaEntry> v = {
            {"matgen.gen_s", "s"},
            {"sparse.ref_gflops", "GFLOP/s"},
            {"gpusim.upload_ms", "ms"},
            {"gpusim.sim_setup_ms", "ms"},
            {"gpusim.sim_count_ms", "ms"},
            {"gpusim.sim_calc_ms", "ms"},
            {"gpusim.sim_malloc_ms", "ms"},
        };
        for (const auto* set : {&lowcf_datasets(), &highcf_datasets()}) {
            for (const auto& n : *set) { v.push_back({"core.mult_ms." + metric_key(n), "ms"}); }
        }
        for (const auto* set : {&lowcf_datasets(), &highcf_datasets()}) {
            for (const auto& n : *set) {
                v.push_back({"core.mult_1t_ms." + metric_key(n), "ms"});
            }
        }
        const std::vector<SchemaEntry> rest = {
            {"core.thread_speedup", "x"},
            {"core.native_vs_ref", "x"},
            {"core.computed_mb", "MB"},
            {"core.ops_per_byte", "FLOP/B"},
            {"core.achieved_gbs", "GB/s"},
            {"core.bw_frac", "share"},
            {"core.faulted_rows", "count"},
            {"core.row_retries", "count"},
            {"core.host_fallback_rows", "count"},
            {"service.admit_ms", "ms"},
            {"service.fingerprint_ms", "ms"},
            {"service.fingerprint_ns_per_nnz", "ns/nnz"},
            {"service.self_ms", "ms"},
            {"service.plan_hit_rate.native", "share"},
            {"service.plan_hit_rate.sim", "share"},
            {"service.residency_hit_rate.native", "share"},
            {"service.residency_hit_rate.sim", "share"},
            {"service.evictions.native", "count"},
            {"service.evictions.sim", "count"},
            {"service.degraded_share.native", "share"},
            {"service.degraded_share.sim", "share"},
            {"service.slab_fallbacks.native", "count"},
            {"service.slab_fallbacks.sim", "count"},
            {"service.sharded_runs.native", "count"},
            {"service.sharded_runs.sim", "count"},
            {"service.replans.native", "count"},
            {"service.replans.sim", "count"},
            {"service.batch_ms", "ms"},
            {"service.repeat_p50_ms", "ms"},
            {"service.repeat_p99_ms", "ms"},
            {"service.fresh_p50_ms", "ms"},
            {"service.fresh_p99_ms", "ms"},
            {"service.large_p50_ms", "ms"},
            {"service.tenant_share.interactive", "share"},
            {"service.tenant_share.bulk", "share"},
            {"solver.amg_setup_ms", "ms"},
            {"solver.amg_self_ms", "ms"},
            {"trace.overhead", "share"},
            {"trace.unattributed_share", "share"},
        };
        v.insert(v.end(), rest.begin(), rest.end());
        for (const char* layer : {"matgen", "sparse", "gpusim", "core", "service", "solver"}) {
            v.push_back({std::string("trace.self_ms.") + layer, "ms"});
        }
        return v;
    }();
    return s;
}

std::string metrics_json(const std::vector<SchemaEntry>& schema, const Values& values)
{
    Json j;
    for (const auto& e : schema) {
        const auto it = values.find(e.name);
        j.raw(e.name, Json()
                          .num("value", it == values.end() ? 0.0 : it->second)
                          .str("unit", e.unit)
                          .text());
    }
    return j.text();
}

[[noreturn]] void usage(const char* msg)
{
    std::fprintf(stderr,
                 "nsbench: %s\nusage: nsbench --workload lowcf|highcf|service --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA] [--out-dir DIR]\n",
                 msg);
    std::exit(2);
}

}  // namespace
}  // namespace nsbench

int main(int argc, char** argv)
{
    using namespace nsbench;
    Config cfg;
    cfg.nproc = hardware_threads();
    // One hardware thread stays free for the OS and other processes: at
    // T = nproc on a shared host a single preempted worker stalls every
    // parallel phase, which doubled the run-to-run spread of gflops.
    cfg.threads = std::max(1, std::min(4, cfg.nproc - 1));
    std::string out_dir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) { usage(("missing value for " + arg).c_str()); }
        const std::string val = argv[++i];
        if (arg == "--workload") {
            cfg.workload = val;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            cfg.seconds = std::atof(val.c_str());
        } else if (arg == "--trace") {
            cfg.trace = val != "0";
        } else if (arg == "--git-sha") {
            cfg.git_sha = val;
        } else if (arg == "--out-dir") {
            out_dir = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (cfg.workload != "lowcf" && cfg.workload != "highcf" && cfg.workload != "service") {
        usage("unknown workload");
    }
    if (!(cfg.seconds > 0.0)) { usage("--seconds must be positive"); }

    const std::string stem = out_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) +
                             (cfg.trace ? "-trace" : "");
    const std::string trace_json = stem + ".trace.json";
    std::filesystem::create_directories(out_dir);

    Tracer tracer;
    Outcome o;
    try {
        o = cfg.workload == "service" ? run_service(cfg, tracer) : run_direct(cfg, tracer);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "nsbench: workload aborted: %s\n", e.what());
        return 1;
    }
    const bool correct = o.failed == 0 && !o.mismatch && o.attempted > 0;
    if (cfg.trace && !tracer.write_chrome_json(trace_json)) {
        std::fprintf(stderr, "nsbench: cannot write %s\n", trace_json.c_str());
    }

    const std::string metrics = cfg.trace ? metrics_json(per_layer_schema(), o.per_layer)
                                          : metrics_json(end_to_end_schema(), o.end_to_end);
    const std::string report =
        Json()
            .str("workload", cfg.workload)
            .raw("environment", environment_json(cfg))
            .raw("inputs", o.inputs)
            .raw("details", o.details)
            .num("error_rate", safe_div(static_cast<double>(o.failed),
                                        static_cast<double>(o.attempted)))
            .raw("metrics", metrics)
            .str("trace_json", cfg.trace ? trace_json : "")
            .text();
    if (std::ofstream f(stem + ".report.json"); f) { f << report << "\n"; }

    std::printf("%s\n", Json()
                            .boolean("correct", correct)
                            .integer("attempted", static_cast<long long>(o.attempted))
                            .integer("failed", static_cast<long long>(o.failed))
                            .raw("metrics", metrics)
                            .text()
                            .c_str());
    return correct ? 0 : 1;
}
