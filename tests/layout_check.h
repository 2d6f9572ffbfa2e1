#pragma once

/// \file layout_check.h
/// Test-side layout-soundness check for compiled programs: the memory
/// planner must never let two live values share workspace bytes.
///
/// Every op kernel is the same whatever memory it is handed, so a planned
/// run can only go wrong through its layout. The check derives what it needs
/// independently of PlanAnalysis's liveness: live ranges come straight from
/// the op list (`in` / `in2` reads, `out` writes; the result register is
/// read by the caller, so it is pinned past the last op), and registers join
/// a storage group only where the analysis marks an op as a view
/// (`is_alias`) or as writing over its input (`is_inplace`). Against the
/// MemoryPlan of one concrete input shape it asserts:
///  1. views are kFlatten ops that do not produce the result; in-place ops
///     are elementwise kinds (kLif, kAffine, kAdd, kAffineLif, kAddLif,
///     kAffineAdd), never overwrite the caller's input, and run at the last
///     read of every register the group held before them;
///  2. storage groups live at the same op occupy disjoint workspace ranges;
///  3. every planned register lies above the col + scratch regions and
///     inside total_floats, and col and scratch do not overlap.

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "infer/analysis.h"
#include "infer/engine.h"

namespace ttsnn::testgen {

inline bool inplace_kind(infer::Op::Kind k) {
  using K = infer::Op::Kind;
  return k == K::kLif || k == K::kAffine || k == K::kAdd ||
         k == K::kAffineLif || k == K::kAddLif || k == K::kAffineAdd;
}

/// Runs the check on `engine`'s program for `input`; each violation is a
/// non-fatal gtest failure naming the op or registers involved.
inline void expect_layout_sound(const infer::Engine& engine,
                                const Shape& input) {
  SCOPED_TRACE("layout check at input " + shape_str(input));
  const std::vector<infer::Op>& ops = engine.ops();
  const infer::PlanAnalysis& an = engine.analysis();
  const auto plan = engine.memory_plan(input);
  const int n_ops = static_cast<int>(ops.size());
  const size_t n_regs = static_cast<size_t>(engine.num_regs());
  const size_t result = static_cast<size_t>(engine.result_reg());

  // Live ranges from the dataflow alone.
  std::vector<int> def(n_regs, -1);
  std::vector<int> last(n_regs, -1);
  for (int i = 0; i < n_ops; ++i) {
    const infer::Op& op = ops[static_cast<size_t>(i)];
    def[static_cast<size_t>(op.out)] = i;
    for (int r : {op.in, op.in2}) {
      if (r >= 0) last[static_cast<size_t>(r)] = i;
    }
  }
  last[result] = n_ops;

  // Storage groups, joined only where the analysis claims shared storage.
  // Registers are written once, so a joining output is still a singleton
  // and group[in] is already its group's root.
  std::vector<size_t> group(n_regs);
  std::iota(group.begin(), group.end(), size_t{0});
  for (int i = 0; i < n_ops; ++i) {
    const infer::Op& op = ops[static_cast<size_t>(i)];
    const size_t in = static_cast<size_t>(op.in);
    const size_t out = static_cast<size_t>(op.out);
    if (an.is_alias[static_cast<size_t>(i)]) {
      EXPECT_EQ(op.kind, infer::Op::Kind::kFlatten)
          << "op " << i << " (" << infer::op_kind_name(op.kind)
          << ") is marked a view";
      EXPECT_NE(out, result) << "view op " << i << " produces the result";
      group[out] = group[in];
    } else if (an.is_inplace[static_cast<size_t>(i)]) {
      EXPECT_TRUE(inplace_kind(op.kind))
          << "op " << i << " (" << infer::op_kind_name(op.kind)
          << ") writes in place but is not elementwise";
      const size_t g = group[in];
      EXPECT_NE(g, group[0]) << "op " << i << " writes over the caller's input";
      for (size_t r = 0; r < n_regs; ++r) {
        if (group[r] == g && def[r] < i) {
          EXPECT_LE(last[r], i) << "op " << i << " writes over r" << r
                                << ", which op " << last[r] << " still reads";
        }
      }
      group[out] = g;
    }
  }

  // Extents of the storage groups that live in the workspace.
  struct Extent {
    size_t root = 0;
    int start = 0;
    int end = 0;
    int64_t lo = 0;
    int64_t hi = 0;
  };
  std::vector<Extent> groups;
  std::vector<int> slot(n_regs, -1);
  const int64_t col_end = plan->col_offset + plan->col_floats;
  const int64_t scratch_end = plan->scratch_offset + plan->scratch_floats;
  const int64_t base = std::max(col_end, scratch_end);
  for (size_t r = 0; r < n_regs; ++r) {
    const size_t g = group[r];
    if (g == group[0] || r == result) continue;  // caller-owned memory
    const int64_t off = plan->offset[r];
    const int64_t end = off + plan->floats[r];
    EXPECT_GE(off, base) << "r" << r << " overlaps the col/scratch regions";
    EXPECT_LE(end, plan->total_floats)
        << "r" << r << " ends past the workspace";
    if (slot[g] < 0) {
      slot[g] = static_cast<int>(groups.size());
      groups.push_back({g, def[r], last[r], off, end});
    } else {
      Extent& e = groups[static_cast<size_t>(slot[g])];
      e.start = std::min(e.start, def[r]);
      e.end = std::max(e.end, last[r]);
      e.lo = std::min(e.lo, off);
      e.hi = std::max(e.hi, end);
    }
  }
  for (size_t a = 0; a < groups.size(); ++a) {
    for (size_t b = a + 1; b < groups.size(); ++b) {
      const Extent& x = groups[a];
      const Extent& y = groups[b];
      if (x.start > y.end || y.start > x.end) continue;  // never live together
      EXPECT_TRUE(x.hi <= y.lo || y.hi <= x.lo)
          << "groups of r" << x.root << " (ops " << x.start << ".." << x.end
          << ", floats [" << x.lo << ", " << x.hi << ")) and r" << y.root
          << " (ops " << y.start << ".." << y.end << ", floats [" << y.lo
          << ", " << y.hi << ")) are live together and share bytes";
    }
  }
  EXPECT_TRUE(plan->col_floats == 0 || plan->scratch_floats == 0 ||
              col_end <= plan->scratch_offset ||
              scratch_end <= plan->col_offset)
      << "col [" << plan->col_offset << ", " << col_end << ") and scratch ["
      << plan->scratch_offset << ", " << scratch_end << ") overlap";
  EXPECT_LE(base, plan->total_floats)
      << "col/scratch end past the workspace";
}

}  // namespace ttsnn::testgen
