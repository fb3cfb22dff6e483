// The direct workloads `lowcf` and `highcf`: float A*A over the paper's
// Fig. 2(b) low-compression and Fig. 2(a) high-compression analogues,
// through hash_spgemm on the native backend with exact planning and one
// reused sim::Device. One caller runs a closed loop of rounds; each round
// multiplies every matrix at T threads and then every matrix at one thread.
// A simulated pass of the same products gives the paper's Fig. 2 / Fig. 4
// metrics.
#include <memory>

#include "bench.hpp"
#include "core/spgemm.hpp"
#include "env.hpp"
#include "gpusim/device_csr.hpp"
#include "inputs.hpp"
#include "sparse/io_matrix_market.hpp"

namespace nsbench {

using namespace nsparse;

namespace {

using Value = float;

/// The bench convention for simulated runs at a reduced scale: host-side
/// constant costs shrink with the matrix so their weight matches the
/// full-size run (bench/common.hpp, scaled_cost).
sim::CostModel scaled_cost(double scale)
{
    sim::CostModel m;
    m.launch_overhead_us /= scale;
    m.malloc_base_us /= scale;
    m.free_base_us /= scale;
    return m;
}

core::Options native_options(int threads)
{
    core::Options o;
    o.backend = core::BackendKind::kNative;
    o.plan_mode = core::PlanMode::kExact;
    o.executor_threads = threads;
    o.quiet = true;
    return o;
}

/// Untimed rounds before the timed ones, in seconds (at least one round).
/// The first T-thread rounds of a run ran 2-3x slower than the rest for up
/// to 3 s on highcf while the machine brought the idle vCPUs up to speed.
constexpr double kWarmupSeconds = 4.0;

/// Timings of one measurement window.
struct Window {
    std::vector<std::vector<double>> rounds;    ///< per round: T-thread call seconds
    std::vector<std::vector<double>> t_multi;   ///< per matrix: T-thread call seconds
    std::vector<std::vector<double>> t_single;  ///< per matrix: 1-thread call seconds
    std::vector<double> upload_s;               ///< per multiply: paired A+B upload seconds
    std::size_t peak_bytes = 0;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
};

/// Which quartile of each matrix's call times a rate uses (see the
/// end-to-end metrics in run_direct).
constexpr double kMultiQuartile = 0.25;
constexpr double kSingleQuartile = 0.75;

/// The rate of one round at a quartile q of every matrix's call time:
/// 2 * products of a round over the sum of each matrix's q-quantile call
/// seconds, and the round's calls over the same sum.
struct QuartileRate {
    double gflops = 0.0;
    double calls_per_s = 0.0;
};

QuartileRate quartile_rate(const std::vector<std::vector<double>>& times,
                           const std::vector<InputDescriptor>& desc, double q)
{
    double flops = 0.0;
    double seconds = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
        flops += 2.0 * static_cast<double>(desc[i].products);
        seconds += percentile(times[i], q);
    }
    return {safe_div(flops, seconds) / 1e9,
            safe_div(static_cast<double>(times.size()), seconds)};
}

/// The number of T-thread calls over a window's rounds.
std::size_t all_samples(const std::vector<std::vector<double>>& rounds)
{
    std::size_t k = 0;
    for (const auto& r : rounds) { k += r.size(); }
    return k;
}

/// The median over a window's rounds of a percentile of each round's
/// T-thread call seconds.
double round_percentile(const Window& w, double p)
{
    std::vector<double> per_round;
    for (const auto& r : w.rounds) { per_round.push_back(percentile(r, p)); }
    return median(per_round);
}

std::string quartiles_ms(const std::vector<double>& v)
{
    return Json()
        .num("q1", percentile(v, 0.25) * 1e3)
        .num("median", median(v) * 1e3)
        .num("q3", percentile(v, 0.75) * 1e3)
        .text();
}

}  // namespace

Outcome run_direct(const Config& cfg, Tracer& tr)
{
    Outcome out;
    const std::vector<std::string>& names =
        cfg.workload == "lowcf" ? lowcf_datasets() : highcf_datasets();
    const std::size_t n = names.size();
    const core::Options opt_multi = native_options(cfg.threads);
    const core::Options opt_single = native_options(1);
    tr.set_enabled(cfg.trace);

    // ---- set-up, kSetupReps times; the median is setup_s --------------------
    // Every set-up is cold: kSetupReps - 1 run in child processes, the last
    // one here, before this process has multiplied.
    std::vector<CsrMatrix<Value>> mats;
    std::unique_ptr<sim::Device> dev;
    const auto setup = [&] {
        SetupTime t;
        const auto t0 = Clock::now();
        mats.clear();
        for (const auto& name : names) {
            const Span s(tr, name.c_str(), "matgen");
            mats.push_back(convert_values<Value>(make_analogue(name, cfg.seed)));
        }
        t.gen_s = seconds_since(t0);
        {
            const Span s(tr, "sim::Device", "gpusim");
            dev = std::make_unique<sim::Device>(sim::DeviceSpec::pascal_p100());
        }
        {
            // Untimed warm-up: the first native call spawns the worker pool.
            const Span s(tr, "hash_spgemm.warmup", "core");
            const auto& a = *std::min_element(
                mats.begin(), mats.end(),
                [](const auto& x, const auto& y) { return x.nnz() < y.nnz(); });
            (void)hash_spgemm<Value>(*dev, a, a, opt_multi);
        }
        t.total_s = seconds_since(t0);
        return t;
    };
    std::vector<SetupTime> setups = cold_setups(kSetupReps - 1, setup);
    setups.push_back(setup());
    std::vector<double> setup_s;
    std::vector<double> gen_s;
    for (const auto& t : setups) {
        setup_s.push_back(t.total_s);
        gen_s.push_back(t.gen_s);
    }

    // ---- correctness oracle, outside every timed region -----------------
    std::vector<CsrMatrix<Value>> refs;
    std::vector<double> ref_s;
    std::vector<InputDescriptor> desc;
    for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        {
            const Span s(tr, "reference_spgemm", "sparse");
            refs.push_back(reference_spgemm(mats[i], mats[i]));
        }
        ref_s.push_back(seconds_since(t0));
        desc.push_back(describe(names[i], mats[i], mats[i], refs.back()));
    }

    SpgemmStats faults;  // fault counters summed over every call
    const auto check = [&](std::size_t i, const SpgemmOutput<Value>& res, const char* what) {
        faults.faulted_rows += res.stats.faulted_rows;
        faults.row_retries += res.stats.row_retries;
        faults.host_fallback_rows += res.stats.host_fallback_rows;
        if (!same_bytes(res.matrix, refs[i])) {
            ++out.failed;
            out.mismatch = true;
            std::fprintf(stderr, "nsbench: %s: %s product differs from reference_spgemm\n",
                         names[i].c_str(), what);
        }
    };
    // One timed native call; the byte check runs after the clock stops.
    // Returns the call's seconds, 0 when it failed.
    const auto call = [&](std::size_t i, const core::Options& opt, int request,
                          std::vector<double>& times, std::size_t& peak) {
        ++out.attempted;
        try {
            SpgemmOutput<Value> res;
            double dt = 0.0;
            {
                const Span s(tr, "hash_spgemm", "core", request);
                const auto t0 = Clock::now();
                res = hash_spgemm<Value>(*dev, mats[i], mats[i], opt);
                dt = seconds_since(t0);
            }
            times.push_back(dt);
            peak = std::max(peak, res.stats.peak_bytes);
            check(i, res, "native");
            return dt;
        } catch (const std::exception& e) {
            ++out.failed;
            std::fprintf(stderr, "nsbench: %s: %s\n", names[i].c_str(), e.what());
            return 0.0;
        }
    };

    // One round: every matrix at T threads, then every matrix at one thread.
    // The T-thread calls run back to back, so the pool's workers are not
    // left idle through a single-thread call before each of them.
    int request = 0;
    const auto round = [&](Window& w, bool traced) {
        std::vector<double>& calls = w.rounds.emplace_back();
        for (std::size_t i = 0; i < n; ++i) {
            const double dt = call(i, opt_multi, request++, w.t_multi[i], w.peak_bytes);
            if (dt > 0.0) { calls.push_back(dt); }
            if (traced) {
                // Paired uploads of A and B: the copy hash_spgemm makes inside.
                const auto t0 = Clock::now();
                {
                    const Span s(tr, "DeviceCsr::upload", "gpusim", request - 1);
                    const auto da = sim::DeviceCsr<Value>::upload(dev->allocator(), mats[i]);
                    const auto db = sim::DeviceCsr<Value>::upload(dev->allocator(), mats[i]);
                }
                w.upload_s.push_back(seconds_since(t0));
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            (void)call(i, opt_single, request++, w.t_single[i], w.peak_bytes);
        }
    };
    // One window: whole rounds until `budget` seconds have passed.
    const auto run_window = [&](double budget, bool traced) {
        Window w;
        w.t_multi.resize(n);
        w.t_single.resize(n);
        tr.set_enabled(traced);
        w.t0_ns = tr.now_ns();
        const auto start = Clock::now();
        do {
            round(w, traced);
        } while (seconds_since(start) < budget);
        w.t1_ns = tr.now_ns();
        return w;
    };

    // Untimed rounds first, so page faults of first use and the ramp-up of
    // idle vCPUs stay out of the timed rounds (their products are still
    // checked).
    (void)run_window(kWarmupSeconds, false);
    const Window plain = run_window(cfg.trace ? cfg.seconds / 2.0 : cfg.seconds, false);
    Window traced;
    if (cfg.trace) { traced = run_window(cfg.seconds / 2.0, true); }

    // ---- simulated pass: the paper's Fig. 2 / Fig. 4 metrics -------------
    double sim_flops = 0.0;
    double sim_seconds = 0.0;
    std::size_t sim_peak = 0;
    SpgemmStats buckets;
    for (std::size_t i = 0; i < n; ++i) {
        sim::Device sdev(sim::DeviceSpec::pascal_p100(), scaled_cost(analogue_scale(names[i])));
        core::Options so;
        so.executor_threads = cfg.threads;
        so.quiet = true;
        ++out.attempted;
        try {
            const Span s(tr, "hash_spgemm.simulated", "core");
            const auto res = hash_spgemm<Value>(sdev, mats[i], mats[i], so);
            sim_flops += 2.0 * static_cast<double>(res.stats.intermediate_products);
            sim_seconds += res.stats.seconds;
            sim_peak = std::max(sim_peak, res.stats.peak_bytes);
            buckets.setup_seconds += res.stats.setup_seconds;
            buckets.count_seconds += res.stats.count_seconds;
            buckets.calc_seconds += res.stats.calc_seconds;
            buckets.malloc_seconds += res.stats.malloc_seconds;
            check(i, res, "simulated");
        } catch (const std::exception& e) {
            ++out.failed;
            std::fprintf(stderr, "nsbench: %s (simulated): %s\n", names[i].c_str(), e.what());
        }
    }
    tr.set_enabled(false);

    // ---- end-to-end metrics (the untraced window) ------------------------
    // Each rate takes the quartile of every matrix's call times on the side
    // the shared machine does not disturb (NOTES.md, "How the direct
    // workloads turn call times into rates"): a T-thread call waits for its
    // slowest chunk, so a vCPU taken away for a moment only slows it, and
    // the lower quartile is used; single-thread calls run 0.6-0.7 of their
    // usual time in bursts that cover a different share of each run, and
    // the upper quartile stays with the usual speed where a median flips.
    //
    // A request is one multiply at T threads, the call a user of the
    // library makes; its percentiles are taken within each round and the
    // median over rounds is reported, because pooled over the window the
    // lowcf p99 is the one slowest call of the run. The call rate, with the
    // same products in every round, is gflops times a constant.
    const QuartileRate multi = quartile_rate(plain.t_multi, desc, kMultiQuartile);
    const QuartileRate single = quartile_rate(plain.t_single, desc, kSingleQuartile);
    auto& e = out.end_to_end;
    e["setup_s"] = median(setup_s);
    e["gflops"] = multi.gflops;
    e["gflops_1t"] = single.gflops;
    e["req_p50_ms"] = round_percentile(plain, 0.50) * 1e3;
    e["req_p99_ms"] = round_percentile(plain, 0.99) * 1e3;
    e["req_per_s"] = multi.calls_per_s;
    e["peak_mb"] = static_cast<double>(plain.peak_bytes) / 1e6;
    e["sim_gflops"] = safe_div(sim_flops, sim_seconds) / 1e9;
    e["sim_peak_mb"] = static_cast<double>(sim_peak) / 1e6;

    // ---- input descriptors and details -----------------------------------
    std::vector<std::string> inputs;
    std::vector<std::string> per_matrix;
    double bytes = 0.0;
    double products = 0.0;
    double ref_total_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        inputs.push_back(desc[i].json());
        per_matrix.push_back(Json()
                                 .str("name", names[i])
                                 .raw("ms", quartiles_ms(plain.t_multi[i]))
                                 .raw("ms_1t", quartiles_ms(plain.t_single[i]))
                                 .text());
        bytes += computed_bytes(mats[i], desc[i].products, desc[i].nnz_c);
        products += static_cast<double>(desc[i].products);
        ref_total_s += ref_s[i];
    }
    out.inputs = Json()
                     .str("value_type", "float")
                     .raw("matrices", json_array(inputs))
                     .num("products", products)
                     .num("computed_mb_per_round", bytes / 1e6)
                     .num("ops_per_byte_computed", safe_div(2.0 * products, bytes))
                     .text();
    Json details;
    details.integer("rounds", static_cast<long long>(plain.rounds.size()))
        .integer("latency_samples", static_cast<long long>(all_samples(plain.rounds)))
        .num("gen_s", median(gen_s))
        .raw("per_matrix", json_array(per_matrix));
    out.details = details.text();
    if (!cfg.trace) { return out; }

    // ---- per-layer metrics (the traced window) ---------------------------
    auto& m = out.per_layer;
    const QuartileRate t_multi = quartile_rate(traced.t_multi, desc, kMultiQuartile);
    double multi_s = 0.0;
    double single_s = 0.0;
    double median_multi_s = 0.0;   // summed per-matrix median call seconds
    double median_single_s = 0.0;
    double ref_equiv_s = 0.0;  // reference seconds for the same single-thread calls
    double bytes_moved = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string key = metric_key(names[i]);
        median_multi_s += median(traced.t_multi[i]);
        median_single_s += median(traced.t_single[i]);
        m["core.mult_ms." + key] = median(traced.t_multi[i]) * 1e3;
        m["core.mult_1t_ms." + key] = median(traced.t_single[i]) * 1e3;
        for (const double t : traced.t_multi[i]) { multi_s += t; }
        for (const double t : traced.t_single[i]) { single_s += t; }
        ref_equiv_s += ref_s[i] * static_cast<double>(traced.t_single[i].size());
        bytes_moved += computed_bytes(mats[i], desc[i].products, desc[i].nnz_c) *
                       static_cast<double>(traced.t_multi[i].size());
    }
    const CopyBandwidth bw = measure_copy_bandwidth(cfg.threads);
    const double achieved = safe_div(bytes_moved, multi_s) / 1e9;
    m["matgen.gen_s"] = median(gen_s);
    m["sparse.ref_gflops"] = safe_div(2.0 * products, ref_total_s) / 1e9;
    m["gpusim.upload_ms"] = median(traced.upload_s) * 1e3;
    m["gpusim.sim_setup_ms"] = buckets.setup_seconds * 1e3;
    m["gpusim.sim_count_ms"] = buckets.count_seconds * 1e3;
    m["gpusim.sim_calc_ms"] = buckets.calc_seconds * 1e3;
    m["gpusim.sim_malloc_ms"] = buckets.malloc_seconds * 1e3;
    // From the median call times, so that the two quartiles of gflops and
    // gflops_1t do not enter the ratio.
    m["core.thread_speedup"] = safe_div(median_single_s, median_multi_s);
    m["core.native_vs_ref"] = safe_div(ref_equiv_s, single_s);
    m["core.computed_mb"] = bytes / 1e6;
    m["core.ops_per_byte"] = safe_div(2.0 * products, bytes);
    m["core.achieved_gbs"] = achieved;
    m["core.bw_frac"] = safe_div(achieved, bw.gbs);
    m["core.faulted_rows"] = faults.faulted_rows;
    m["core.row_retries"] = faults.row_retries;
    m["core.host_fallback_rows"] = faults.host_fallback_rows;
    m["trace.overhead"] = 1.0 - safe_div(t_multi.gflops, multi.gflops);
    add_trace_metrics(m, tr, traced.t0_ns, traced.t1_ns);
    out.details = details.integer("traced_rounds", static_cast<long long>(traced.rounds.size()))
                      .raw("copy_bandwidth", bw.json())
                      .text();
    return out;
}

}  // namespace nsbench
