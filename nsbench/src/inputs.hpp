// Seeded inputs of the benchmark workloads.
//
// The direct workloads use the Table II analogues of matgen/dataset_suite.cpp:
// the same gen:: generators with the same shape parameters and default
// scales, but seeded from the benchmark's --seed instead of the suite's fixed
// seed, so every seed gives another matrix of the same structural class.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace nsbench {

/// Paper Fig. 2(b): the low-compression matrices (cf = products / nnz(C) < 2).
const std::vector<std::string>& lowcf_datasets();

/// Paper Fig. 2(a): the high-compression FEM / Protein / QCD matrices.
const std::vector<std::string>& highcf_datasets();

/// The Table II analogue of `name` at its default scale, seeded from `seed`.
nsparse::CsrMatrix<double> make_analogue(const std::string& name, std::uint64_t seed);

/// Default scale of `name` (rows are the paper's rows / scale).
double analogue_scale(const std::string& name);

/// Deterministic 64-bit mix of a seed and a label (FNV-1a + splitmix).
std::uint64_t mix_seed(std::uint64_t seed, const std::string& label);

}  // namespace nsbench
