#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "matgen/dataset_suite.hpp"
#include "matgen/generators.hpp"
#include "sparse/error.hpp"
#include "sparse/transpose.hpp"

namespace nsbench {

using namespace nsparse;

namespace {

const gen::DatasetSpec& spec_of(const std::string& name)
{
    for (const auto& s : gen::dataset_suite()) {
        if (s.name == name) { return s; }
    }
    throw PreconditionError("unknown dataset: " + name);
}

// The shape rules below follow gen::make_dataset; only the seed differs.

CsrMatrix<double> fem_analogue(wide_t paper_rows, double scale, double nnz_per_row,
                               index_t max_nnz_per_row, index_t block, std::uint64_t seed)
{
    gen::FemParams p;
    p.block_size = block;
    const auto rows = static_cast<wide_t>(static_cast<double>(paper_rows) / scale);
    p.avg_blocks = nnz_per_row / static_cast<double>(block);
    p.nodes = std::max<index_t>(static_cast<index_t>(4.0 * p.avg_blocks) + 2,
                                to_index(rows / block));
    const double max_blocks = static_cast<double>(max_nnz_per_row) / static_cast<double>(block);
    p.jitter = std::clamp(max_blocks / std::max(p.avg_blocks, 1.0) - 1.0, 0.05, 1.0);
    p.bandwidth = std::min<index_t>(p.nodes - 1,
                                    std::max<index_t>(4, static_cast<index_t>(1.5 * p.avg_blocks)));
    p.seed = seed;
    return gen::fem_like(p);
}

index_t scaled_rows(wide_t paper_rows, double scale)
{
    return std::max<index_t>(16, to_index(static_cast<wide_t>(
                                     static_cast<double>(paper_rows) / scale)));
}

}  // namespace

const std::vector<std::string>& lowcf_datasets()
{
    static const std::vector<std::string> names = {"Economics", "Circuit", "Epidemiology",
                                                   "webbase"};
    return names;
}

const std::vector<std::string>& highcf_datasets()
{
    static const std::vector<std::string> names = {
        "Protein",    "FEM/Spheres", "FEM/Cantilever", "FEM/Ship",
        "Wind Tunnel", "FEM/Harbor", "QCD",            "FEM/Accelerator"};
    return names;
}

std::uint64_t mix_seed(std::uint64_t seed, const std::string& label)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : label) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + h;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double analogue_scale(const std::string& name) { return spec_of(name).default_scale; }

CsrMatrix<double> make_analogue(const std::string& name, std::uint64_t seed)
{
    const gen::DatasetSpec& spec = spec_of(name);
    const double s = spec.default_scale;
    const gen::PaperStats& ps = spec.paper;
    const std::uint64_t sd = mix_seed(seed, name);

    if (name == "Protein") {
        return fem_analogue(ps.rows, s, ps.nnz_per_row, ps.max_nnz_per_row, 6, sd);
    }
    if (name == "FEM/Spheres" || name == "FEM/Cantilever" || name == "FEM/Ship" ||
        name == "FEM/Harbor" || name == "FEM/Accelerator") {
        return fem_analogue(ps.rows, s, ps.nnz_per_row, ps.max_nnz_per_row, 3, sd);
    }
    if (name == "Wind Tunnel") {
        return fem_analogue(ps.rows, s, ps.nnz_per_row, ps.max_nnz_per_row, 4, sd);
    }
    if (name == "QCD") { return gen::banded(scaled_rows(ps.rows, s), 39, 1, sd); }
    if (name == "Economics") {
        gen::ScaleFreeParams p;
        p.rows = scaled_rows(ps.rows, s);
        p.avg_degree = ps.nnz_per_row;
        p.min_degree = 1;
        p.max_degree = ps.max_nnz_per_row;
        p.alpha = 2.5;
        p.locality = 0.3;
        p.seed = sd;
        return gen::scale_free(p);
    }
    if (name == "Circuit") {
        gen::ScaleFreeParams p;
        p.rows = scaled_rows(ps.rows, s);
        p.avg_degree = ps.nnz_per_row / 2.0;
        p.min_degree = 1;
        p.max_degree = ps.max_nnz_per_row / 2;
        p.alpha = 1.9;
        p.locality = 0.4;
        p.seed = sd;
        return symmetrize(gen::scale_free(p));
    }
    if (name == "Epidemiology") {
        const auto side = static_cast<index_t>(std::sqrt(static_cast<double>(ps.rows) / s));
        return gen::grid2d(std::max<index_t>(4, side), std::max<index_t>(4, side), true, sd);
    }
    if (name == "webbase") {
        gen::ScaleFreeParams p;
        p.rows = scaled_rows(ps.rows, s);
        p.avg_degree = ps.nnz_per_row;
        p.min_degree = 1;
        p.max_degree = std::max<index_t>(
            64, static_cast<index_t>(static_cast<double>(ps.max_nnz_per_row) / std::sqrt(s)));
        p.alpha = 1.35;
        p.locality = 0.0;
        p.hub_attach = 0.6;
        p.hub_band = 0.01;
        p.seed = sd;
        return gen::scale_free(p);
    }
    throw PreconditionError("no benchmark analogue for dataset: " + name);
}

}  // namespace nsbench
