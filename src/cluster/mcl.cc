#include "cluster/mcl.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "util/logging.h"
#include "util/parallel_audit.h"
#include "util/thread_pool.h"

namespace dgc {

namespace {

/// Inflates (entry^r), prunes, caps and renormalizes one flow row held in
/// unsorted (cols, vals). Because inflation is monotone, the top-k
/// selection happens on raw values *before* the expensive pow() calls, so
/// cost is O(t) for the selection plus O(k log k) for the final sort —
/// never O(t log t) on the (possibly dense) expanded row. Only the
/// fallback path (FirstTouchRow) runs it, and there the input order
/// matters: nth_element tie-breaks on it and the sum is folded in it.
void InflatePruneRow(Index row, std::vector<Index>& cols,
                     std::vector<Scalar>& vals, const RmclOptions& options,
                     std::vector<std::pair<Scalar, Index>>& scratch) {
  if (cols.empty()) return;
  scratch.clear();
  for (size_t i = 0; i < cols.size(); ++i) {
    scratch.emplace_back(vals[i], cols[i]);
  }
  const size_t cap = static_cast<size_t>(options.max_row_nnz);
  if (scratch.size() > cap) {
    std::nth_element(
        scratch.begin(), scratch.begin() + static_cast<long>(cap),
        scratch.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    scratch.resize(cap);
  }
  // Inflate the survivors and normalize among them.
  Scalar sum = 0.0;
  for (auto& [v, c] : scratch) {
    v = std::pow(v, options.inflation);
    sum += v;
  }
  if (sum <= 0.0) {
    // Every inflated value underflowed to zero. Collapse the row onto its
    // self-loop if it has one (the natural attractor), else onto the
    // largest-magnitude original entry — never an arbitrary stale column.
    size_t keep = 0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (std::abs(vals[i]) > std::abs(vals[keep])) keep = i;
    }
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == row) {
        keep = i;
        break;
      }
    }
    cols[0] = cols[keep];
    cols.resize(1);
    vals.resize(1);
    vals[0] = 1.0;
    return;
  }
  // Drop normalized entries below the prune threshold, keeping at least
  // the largest so the row never empties. A NaN quotient compares false
  // and is kept.
  size_t out = 0;
  size_t best = 0;
  for (size_t i = 0; i < scratch.size(); ++i) {
    if (scratch[i].first > scratch[best].first) best = i;
    if (scratch[i].first / sum < options.prune_threshold) continue;
    scratch[out++] = scratch[i];
  }
  if (out == 0) {
    scratch[0] = scratch[best];
    out = 1;
  }
  scratch.resize(out);
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  Scalar kept = 0.0;
  for (const auto& [v, c] : scratch) kept += v;
  cols.resize(out);
  vals.resize(out);
  for (size_t i = 0; i < out; ++i) {
    cols[i] = scratch[i].second;
    vals[i] = scratch[i].first / kept;
  }
}

/// Per-worker workspace for the row-parallel R-MCL loop, allocated once per
/// call and reused across rows and iterations. `accum` and both bitmap
/// levels are all-zero between rows: each row's kernel re-zeroes exactly
/// what it touched. The buffered rows of the current iteration live in
/// (rows, cols, vals) until pass 2 copies them to their final CSR offsets.
struct RmclWorkspace {
  std::vector<Scalar> accum;
  /// Touched columns: bit c%64 of word c/64. `summary` has bit w%64 of word
  /// w/64 set when word w is non-zero, so enumerating a row costs
  /// O(touched + n/4096) rather than O(n).
  std::vector<uint64_t> bits;
  std::vector<uint64_t> summary;
  /// The row's entries that reach its lower bound, in column order.
  std::vector<Index> cand_cols;
  std::vector<Scalar> cand_vals;
  std::vector<Scalar> select;  ///< values permuted by nth_element
  /// Fallback path only. The first-touch order is part of that path's
  /// result: InflatePruneRow's nth_element cap tie-breaks on it, and its
  /// normalizing sum is folded in the order the cap leaves behind.
  std::vector<Index> touched;
  std::vector<Index> row_cols;
  std::vector<Scalar> row_vals;
  std::vector<std::pair<Scalar, Index>> scratch;
  std::vector<Index> rows;   ///< rows buffered by this worker this iteration
  std::vector<Index> cols;   ///< their column indices, concatenated
  std::vector<Scalar> vals;  ///< their values, concatenated
  int64_t expanded_nnz = 0;
  int64_t fallback_rows = 0;
  int64_t labels_changed = 0;

  void EnsureSize(Index n) {
    const size_t size = static_cast<size_t>(n);
    if (accum.size() < size) {
      accum.assign(size, 0.0);
      bits.assign((size + 63) / 64, 0);
      summary.assign((size + 4095) / 4096, 0);
      cand_cols.resize(size + 1);
      cand_vals.resize(size + 1);
      touched.resize(size);
    }
  }
  void ClearBuffers() {
    rows.clear();
    cols.clear();
    vals.clear();
    expanded_nnz = 0;
    fallback_rows = 0;
    labels_changed = 0;
  }
};

/// The summary bits that scattering each row of a matrix sets: one (summary
/// word, mask) pair per 4096-column block the row has entries in. The row
/// kernel ORs these in once per row it scatters instead of once per entry;
/// per entry, consecutive updates of the same few summary words would
/// serialize on store-to-load forwarding.
struct SummaryMasks {
  std::vector<Offset> row_ptr;
  std::vector<uint32_t> words;
  std::vector<uint64_t> masks;

  explicit SummaryMasks(const CsrMatrix& a)
      : row_ptr(static_cast<size_t>(a.rows()) + 1, 0) {
    for (Index k = 0; k < a.rows(); ++k) {
      const size_t row_start = words.size();
      for (const Index c64 : a.RowCols(k)) {
        const auto c = static_cast<uint32_t>(c64);
        const uint64_t bit = uint64_t{1} << (c / 64 % 64);
        if (words.size() > row_start && words.back() == c / 4096) {
          masks.back() |= bit;
        } else {
          words.push_back(c / 4096);
          masks.push_back(bit);
        }
      }
      row_ptr[static_cast<size_t>(k) + 1] = static_cast<Offset>(words.size());
    }
  }
};

/// The attractor of a flow row, which FlowToClustering joins the row's
/// vertex to: its first largest entry in column order; -1 for an empty
/// row.
Index RowAttractor(std::span<const Index> cols, std::span<const Scalar> vals) {
  Index best = -1;
  Scalar best_val = -1.0;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (vals[i] > best_val) {
      best_val = vals[i];
      best = cols[i];
    }
  }
  return best;
}

/// Row r of M * right by the first-touch Gustavson scatter, then
/// InflatePruneRow, into (w.row_cols, w.row_vals). This is the reference
/// row kernel; RowKernel falls back to it whenever it cannot prove that
/// its own result is the same. Returns the number of touched columns.
int64_t FirstTouchRow(Index r, const CsrMatrix& m, const CsrMatrix& right,
                      const RmclOptions& options, RmclWorkspace& w) {
  Index touched_count = 0;
  auto mcols = m.RowCols(r);
  auto mvals = m.RowValues(r);
  for (size_t i = 0; i < mcols.size(); ++i) {
    const Scalar mv = mvals[i];
    auto rcols = right.RowCols(mcols[i]);
    auto rvals = right.RowValues(mcols[i]);
    for (size_t p = 0; p < rcols.size(); ++p) {
      const auto c = static_cast<size_t>(rcols[p]);
      const uint64_t bit = uint64_t{1} << (c % 64);
      if ((w.bits[c / 64] & bit) == 0) {
        w.bits[c / 64] |= bit;
        w.touched[static_cast<size_t>(touched_count++)] = rcols[p];
      }
      w.accum[c] += mv * rvals[p];
    }
  }
  w.row_cols.assign(w.touched.begin(), w.touched.begin() + touched_count);
  w.row_vals.resize(static_cast<size_t>(touched_count));
  for (size_t p = 0; p < w.row_cols.size(); ++p) {
    const auto c = static_cast<size_t>(w.row_cols[p]);
    w.row_vals[p] = w.accum[c];
    w.accum[c] = 0.0;
    w.bits[c / 64] = 0;
  }
  InflatePruneRow(r, w.row_cols, w.row_vals, options, w.scratch);
  return touched_count;
}

/// \brief The R-MCL row kernel: row r of Prune(Inflate(M * right)),
/// bit-identical to FirstTouchRow, appended to (w.cols, w.vals).
///
/// 1. Scatter into `accum` and mark the column in the bitmap, with no
///    branch. Each column still sums in ascending-k order from 0.0, so each
///    value is the same double as in FirstTouchRow.
/// 2. Take a lower bound L on the cap-th largest value: the cap-th largest
///    value over a set of distinct touched columns, so L cannot exceed the
///    true cap-th largest v*. The set is M's own row r (M_G has a full
///    diagonal, so these are touched) and, if that has fewer than cap
///    touched columns, the row of `right` under M's largest entry.
/// 3. Enumerate the touched columns in ascending order over the bitmap,
///    re-zeroing as it goes, and keep only the entries >= L (NaN included).
/// 4. Select v* among those. When exactly cap entries reach v*, the
///    surviving set is unique, so every selection, InflatePruneRow's
///    nth_element included, keeps the same entries; they come out already
///    in column order.
/// 5. Inflate, prune and renormalize in column order.
///
/// InflatePruneRow folds its prune sum in another order, which may differ
/// by a few ulp. Returns false (with the scratch state all-zero again)
/// whenever the two could disagree: a tie straddles the cap, a normalized
/// survivor lies within the rounding margin of prune_threshold, a value or
/// sum is non-finite or <= 0, or no entry survives the prune. The caller
/// then recomputes the row with FirstTouchRow.
bool RowKernel(Index r, const CsrMatrix& m, const CsrMatrix& right,
               const SummaryMasks& right_masks, const RmclOptions& options,
               RmclWorkspace& w, int64_t* touched_out) {
  // As in InflatePruneRow, a negative cap means no cap; a zero cap keeps
  // one entry through InflatePruneRow's underflow collapse.
  const auto cap = static_cast<size_t>(options.max_row_nnz);
  if (cap == 0) return false;
  Scalar* accum = w.accum.data();
  uint64_t* bits = w.bits.data();
  uint64_t* summary = w.summary.data();
  Index* cand_cols = w.cand_cols.data();
  Scalar* cand_vals = w.cand_vals.data();
  auto mcols = m.RowCols(r);
  auto mvals = m.RowValues(r);
  for (size_t i = 0; i < mcols.size(); ++i) {
    const Scalar mv = mvals[i];
    auto rcols = right.RowCols(mcols[i]);
    auto rvals = right.RowValues(mcols[i]);
    for (size_t p = 0; p < rcols.size(); ++p) {
      const auto c = static_cast<size_t>(rcols[p]);
      accum[c] += mv * rvals[p];
      bits[c / 64] |= uint64_t{1} << (c % 64);
    }
    const auto k = static_cast<size_t>(mcols[i]);
    for (Offset e = right_masks.row_ptr[k]; e < right_masks.row_ptr[k + 1];
         ++e) {
      summary[right_masks.words[static_cast<size_t>(e)]] |=
          right_masks.masks[static_cast<size_t>(e)];
    }
  }

  Scalar lower = -std::numeric_limits<Scalar>::infinity();
  {
    // Collect the values of touched columns of `cols` into cand_vals. A
    // collected column's bit is cleared so a repeat is not counted twice;
    // the bits are restored below.
    size_t s = 0;
    auto collect = [&](std::span<const Index> cols) {
      for (const Index k64 : cols) {
        const auto k = static_cast<size_t>(k64);
        const uint64_t bit = uint64_t{1} << (k % 64);
        cand_cols[s] = k64;
        cand_vals[s] = accum[k];
        s += static_cast<size_t>((bits[k / 64] & bit) != 0);
        bits[k / 64] &= ~bit;
      }
    };
    collect(mcols);
    if (s < cap && !mcols.empty()) {
      const auto top = std::max_element(mvals.begin(), mvals.end());
      collect(right.RowCols(mcols[static_cast<size_t>(top - mvals.begin())]));
    }
    for (size_t i = 0; i < s; ++i) {
      const auto k = static_cast<size_t>(cand_cols[i]);
      bits[k / 64] |= uint64_t{1} << (k % 64);
    }
    if (s == cap) {
      lower = *std::min_element(cand_vals, cand_vals + s);
    } else if (s > cap) {
      std::nth_element(cand_vals, cand_vals + (cap - 1), cand_vals + s,
                       std::greater<>());
      lower = cand_vals[cap - 1];
    }
  }

  size_t kept = 0;
  int64_t touched = 0;
  for (size_t sw = 0; sw < w.summary.size(); ++sw) {
    uint64_t words = summary[sw];
    if (words == 0) continue;
    summary[sw] = 0;
    do {
      const size_t wi = sw * 64 + static_cast<size_t>(std::countr_zero(words));
      words &= words - 1;
      uint64_t word = bits[wi];
      bits[wi] = 0;
      touched += std::popcount(word);
      while (word != 0) {
        const size_t c = wi * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        const Scalar v = accum[c];
        accum[c] = 0.0;
        cand_cols[kept] = static_cast<Index>(c);
        cand_vals[kept] = v;
        kept += static_cast<size_t>(!(v < lower));
      }
    } while (words != 0);
  }
  *touched_out = touched;

  size_t count = kept;
  if (static_cast<size_t>(touched) > cap) {
    // Fewer than cap entries reach L only if a NaN corrupted L.
    if (kept < cap) return false;
    if (kept > cap) {
      w.select.assign(cand_vals, cand_vals + kept);
      std::nth_element(w.select.begin(),
                       w.select.begin() + static_cast<long>(cap - 1),
                       w.select.end(), std::greater<>());
      const Scalar cap_value = w.select[cap - 1];
      bool nan = false;
      count = 0;
      for (size_t i = 0; i < kept; ++i) {
        const Scalar v = cand_vals[i];
        nan |= v != v;
        cand_cols[count] = cand_cols[i];
        cand_vals[count] = v;
        count += static_cast<size_t>(v >= cap_value);
      }
      // count > cap: a tie straddles the cap.
      if (nan || count != cap) return false;
    }
  }

  constexpr Scalar kMax = std::numeric_limits<Scalar>::max();
  bool bad = false;
  Scalar sum = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const Scalar v = cand_vals[i];
    const Scalar inflated = std::pow(v, options.inflation);
    bad |= !(v > 0.0 && v <= kMax && inflated > 0.0 && inflated <= kMax);
    cand_vals[i] = inflated;
    sum += inflated;
  }
  if (bad || !(sum <= kMax)) return false;

  // Both sums add the same positive terms, so they differ by at most about
  // count ulp; a quotient outside this margin around the threshold is on
  // the same side of it under either order.
  const Scalar threshold = options.prune_threshold;
  const Scalar margin = std::max(
      std::abs(threshold) *
          std::max(1e-12, 4.0 * static_cast<Scalar>(count) *
                              std::numeric_limits<Scalar>::epsilon()),
      4.0 * std::numeric_limits<Scalar>::denorm_min());
  bool near = false;
  size_t out = 0;
  for (size_t i = 0; i < count; ++i) {
    const Scalar q = cand_vals[i] / sum;
    near |= std::abs(q - threshold) <= margin;
    cand_cols[out] = cand_cols[i];
    cand_vals[out] = cand_vals[i];
    out += static_cast<size_t>(!(q < threshold));
  }
  if (near || out == 0) return false;

  Scalar kept_sum = 0.0;
  for (size_t i = 0; i < out; ++i) kept_sum += cand_vals[i];
  w.cols.insert(w.cols.end(), cand_cols, cand_cols + out);
  for (size_t i = 0; i < out; ++i) w.vals.push_back(cand_vals[i] / kept_sum);
  return true;
}

}  // namespace

CsrMatrix BuildFlowMatrixFromAdjacency(const CsrMatrix& adj,
                                       Scalar self_loop_scale,
                                       int num_threads) {
  const Index n = adj.rows();
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(num_threads), std::max<Index>(n, 1)));
  // Pass 1: per-row sizes (one extra slot when the diagonal is absent).
  std::vector<Offset> row_ptr(static_cast<size_t>(n) + 1, 0);
  ParallelFor(0, n, threads, [&](int64_t u64) {
    const Index u = static_cast<Index>(u64);
    auto cols = adj.RowCols(u);
    const bool has_diag = std::binary_search(cols.begin(), cols.end(), u);
    row_ptr[static_cast<size_t>(u) + 1] = adj.RowNnz(u) + (has_diag ? 0 : 1);
  });
  for (Index u = 0; u < n; ++u) {
    row_ptr[static_cast<size_t>(u) + 1] += row_ptr[static_cast<size_t>(u)];
  }
  // Pass 2: each row is filled and normalized independently at its final
  // offset, so the result is bit-identical for every thread count.
  std::vector<Index> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<Scalar> values(static_cast<size_t>(row_ptr.back()));
  ParallelFor(0, n, threads, [&](int64_t u64) {
    const Index u = static_cast<Index>(u64);
    auto cols = adj.RowCols(u);
    auto vals = adj.RowValues(u);
    const size_t at = static_cast<size_t>(row_ptr[static_cast<size_t>(u)]);
    const size_t nnz_u =
        static_cast<size_t>(row_ptr[static_cast<size_t>(u) + 1]) - at;
    audit::AuditSpan audit_c(col_idx.data() + at, nnz_u, "flow.col_idx");
    audit::AuditSpan audit_v(values.data() + at, nnz_u, "flow.values");
    // Mean incident weight (excluding any existing diagonal).
    Scalar sum = 0.0;
    Offset count = 0;
    Scalar existing_self = 0.0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == u) {
        existing_self = vals[i];
        continue;
      }
      sum += vals[i];
      ++count;
    }
    const Scalar self =
        existing_self +
        self_loop_scale * (count > 0 ? sum / static_cast<Scalar>(count)
                                     : 1.0);
    // Merge the self-loop into the sorted row.
    size_t out = static_cast<size_t>(row_ptr[static_cast<size_t>(u)]);
    bool inserted = false;
    Scalar row_total = 0.0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == u) {
        col_idx[out] = u;
        values[out++] = self;
        row_total += self;
        inserted = true;
      } else {
        if (!inserted && cols[i] > u) {
          col_idx[out] = u;
          values[out++] = self;
          row_total += self;
          inserted = true;
        }
        col_idx[out] = cols[i];
        values[out++] = vals[i];
        row_total += vals[i];
      }
    }
    if (!inserted) {
      col_idx[out] = u;
      values[out++] = self;
      row_total += self;
    }
    // Normalize the row in place.
    for (size_t i = static_cast<size_t>(row_ptr[static_cast<size_t>(u)]);
         i < out; ++i) {
      values[i] /= row_total;
    }
  });
  // Each row is the sorted source row with the diagonal merged in; validity
  // is checked in debug builds only so the parallel build stays O(nnz/p).
  CsrMatrix flow = CsrMatrix::FromPartsUnchecked(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
  flow.ValidateStructure("BuildFlowMatrixFromAdjacency");
  return flow;
}

CsrMatrix BuildFlowMatrix(const UGraph& g, Scalar self_loop_scale,
                          int num_threads) {
  return BuildFlowMatrixFromAdjacency(g.adjacency(), self_loop_scale,
                                      num_threads);
}

Result<CsrMatrix> RmclIterate(CsrMatrix m, const CsrMatrix& mg,
                              const RmclOptions& options, int iterations) {
  if (m.rows() != mg.rows() || m.cols() != mg.cols()) {
    return Status::InvalidArgument("flow/graph matrix shape mismatch");
  }
  if (options.inflation <= 1.0) {
    return Status::InvalidArgument("inflation must be > 1");
  }
  const Index n = m.rows();
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveNumThreads(options.num_threads), std::max<Index>(n, 1)));
  StageSpan span(options.metrics, "rmcl");
  if (span.live()) {
    span.Metric("n", n);
    span.Metric("input_nnz", m.nnz());
    span.Metric("inflation", options.inflation);
    span.Metric("prune_threshold", options.prune_threshold);
    span.Metric("max_iterations", iterations);
  }
  std::vector<RmclWorkspace> workspaces(static_cast<size_t>(threads));
  // M_G is the right operand of every regularized iteration; classic MCL
  // multiplies by the current flow, so its masks are rebuilt per iteration.
  std::optional<SummaryMasks> right_masks;
  if (options.regularized) right_masks.emplace(mg);
  std::vector<Offset> row_nnz(static_cast<size_t>(n), 0);
  std::vector<Scalar> row_diff(static_cast<size_t>(n), 0.0);
  bool converged = false;
  int iterations_run = 0;

  for (int iter = 0; iter < iterations; ++iter) {
    if (options.cancel != nullptr && options.cancel->Expired()) {
      return options.cancel->status();
    }
    StageSpan iter_span(options.metrics, "rmcl.iteration");
    iter_span.Metric("iteration", iter);
    const CsrMatrix& right = options.regularized ? mg : m;
    if (!options.regularized) right_masks.emplace(right);
    for (auto& w : workspaces) w.ClearBuffers();
    // Pass 1: expand, inflate and prune each row into per-worker buffers.
    // Every quantity written (row_nnz, row_diff, the row itself) depends
    // only on the row, so dynamic chunk assignment cannot change results.
    ParallelForWorkers(
        0, n, threads, /*grain=*/0,
        [&](int worker, int64_t lo, int64_t hi) {
          // Chunk-granularity cancellation: a tripped deadline/memory budget
          // makes every remaining chunk a no-op, so the loop drains within
          // one chunk's worth of work per worker.
          if (options.cancel != nullptr && options.cancel->Expired()) return;
          RmclWorkspace& w = workspaces[static_cast<size_t>(worker)];
          w.EnsureSize(n);
          audit::AuditSpan audit_nnz(row_nnz.data() + lo,
                                     static_cast<size_t>(hi - lo),
                                     "rmcl.row_nnz");
          audit::AuditSpan audit_diff(row_diff.data() + lo,
                                      static_cast<size_t>(hi - lo),
                                      "rmcl.row_diff");
          for (int64_t r64 = lo; r64 < hi; ++r64) {
            const Index r = static_cast<Index>(r64);
            const size_t start = w.cols.size();
            int64_t touched = 0;
            if (!RowKernel(r, m, right, *right_masks, options, w,
                           &touched)) {
              touched = FirstTouchRow(r, m, right, options, w);
              w.cols.insert(w.cols.end(), w.row_cols.begin(),
                            w.row_cols.end());
              w.vals.insert(w.vals.end(), w.row_vals.begin(),
                            w.row_vals.end());
              ++w.fallback_rows;
            }
            const std::span<const Index> new_cols(w.cols.data() + start,
                                                  w.cols.size() - start);
            const std::span<const Scalar> new_vals(w.vals.data() + start,
                                                   w.vals.size() - start);
            auto old_cols = m.RowCols(r);
            auto old_vals = m.RowValues(r);
            if (options.metrics != nullptr) {
              w.expanded_nnz += touched;
              w.labels_changed += static_cast<int64_t>(
                  RowAttractor(new_cols, new_vals) !=
                  RowAttractor(old_cols, old_vals));
            }
            // L1 change of this row versus the previous flow (sorted
            // merge).
            Scalar diff = 0.0;
            size_t a = 0, b = 0;
            while (a < new_cols.size() || b < old_cols.size()) {
              if (b >= old_cols.size() ||
                  (a < new_cols.size() && new_cols[a] < old_cols[b])) {
                diff += std::abs(new_vals[a]);
                ++a;
              } else if (a >= new_cols.size() || old_cols[b] < new_cols[a]) {
                diff += std::abs(old_vals[b]);
                ++b;
              } else {
                diff += std::abs(new_vals[a] - old_vals[b]);
                ++a;
                ++b;
              }
            }
            row_diff[static_cast<size_t>(r)] = diff;
            row_nnz[static_cast<size_t>(r)] =
                static_cast<Offset>(new_cols.size());
            w.rows.push_back(r);
          }
        });
    // A cancelled pass 1 leaves partially-built buffers; abandon them
    // rather than assembling a half-computed flow matrix.
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return options.cancel->status();
    }
    // Serial prefix sum: deterministic row pointers for any thread count.
    std::vector<Offset> new_row_ptr(static_cast<size_t>(n) + 1, 0);
    for (Index r = 0; r < n; ++r) {
      new_row_ptr[static_cast<size_t>(r) + 1] =
          new_row_ptr[static_cast<size_t>(r)] +
          row_nnz[static_cast<size_t>(r)];
    }
    // Pass 2: each worker copies its buffered rows to their final offsets.
    std::vector<Index> new_cols(static_cast<size_t>(new_row_ptr.back()));
    std::vector<Scalar> new_vals(static_cast<size_t>(new_row_ptr.back()));
    ParallelFor(0, threads, threads, [&](int64_t wi) {
      const RmclWorkspace& w = workspaces[static_cast<size_t>(wi)];
      size_t pos = 0;
      for (Index r : w.rows) {
        const size_t k = static_cast<size_t>(row_nnz[static_cast<size_t>(r)]);
        const size_t at =
            static_cast<size_t>(new_row_ptr[static_cast<size_t>(r)]);
        audit::AuditSpan audit_c(new_cols.data() + at, k, "rmcl.col_idx");
        audit::AuditSpan audit_v(new_vals.data() + at, k, "rmcl.values");
        std::copy_n(w.cols.begin() + static_cast<long>(pos), k,
                    new_cols.begin() + static_cast<long>(at));
        std::copy_n(w.vals.begin() + static_cast<long>(pos), k,
                    new_vals.begin() + static_cast<long>(at));
        pos += k;
      }
    });
    // Serial reduction in row order, so the convergence decision (and with
    // it the iteration count) is bit-identical across thread counts. Rows
    // are sorted, deduplicated and in range by construction; skip the
    // O(nnz) validation pass that would otherwise serialize every
    // iteration.
    Scalar total_diff = 0.0;
    for (Index r = 0; r < n; ++r) {
      total_diff += row_diff[static_cast<size_t>(r)];
    }
    m = CsrMatrix::FromPartsUnchecked(n, n, std::move(new_row_ptr),
                                      std::move(new_cols),
                                      std::move(new_vals));
    m.ValidateStructure("RmclIterate");
    ++iterations_run;
    const Scalar residual = total_diff / static_cast<Scalar>(n);
    if (iter_span.live()) {
      // Per-worker shards of per-row counts: integer addition commutes, so
      // the totals are bit-identical across thread counts.
      int64_t expanded_nnz = 0;
      int64_t fallback_rows = 0;
      int64_t labels_changed = 0;
      for (const RmclWorkspace& w : workspaces) {
        expanded_nnz += w.expanded_nnz;
        fallback_rows += w.fallback_rows;
        labels_changed += w.labels_changed;
      }
      iter_span.Metric("expanded_nnz", expanded_nnz);
      iter_span.Metric("exact_fallback_rows", fallback_rows);
      iter_span.Metric("labels_changed", labels_changed);
      iter_span.Metric("nnz", m.nnz());
      iter_span.Metric("residual", residual);
      iter_span.PerfMetric("workers", threads);
    }
    if (residual < options.convergence_tol) {
      converged = true;
      break;
    }
  }
  if (span.live()) {
    span.Metric("iterations_run", iterations_run);
    span.Metric("converged", static_cast<int64_t>(converged));
    span.Metric("output_nnz", m.nnz());
  }
  return m;
}

Clustering FlowToClustering(const CsrMatrix& m) {
  const Index n = m.rows();
  // Union vertices with their attractors; components become clusters.
  std::vector<Index> parent(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
  std::function<Index(Index)> find = [&](Index x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (Index r = 0; r < n; ++r) {
    const Index best = RowAttractor(m.RowCols(r), m.RowValues(r));
    if (best == -1) continue;  // empty row -> singleton
    const Index ra = find(r);
    const Index rb = find(best);
    if (ra != rb) parent[static_cast<size_t>(ra)] = rb;
  }
  Clustering clustering(n);
  for (Index v = 0; v < n; ++v) clustering.Assign(v, find(v));
  clustering.Compact();
  return clustering;
}

Result<Clustering> Rmcl(const UGraph& g, const RmclOptions& options) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot cluster an empty graph");
  }
  CsrMatrix mg =
      BuildFlowMatrix(g, options.self_loop_scale, options.num_threads);
  DGC_ASSIGN_OR_RETURN(CsrMatrix flow,
                       RmclIterate(mg, mg, options, options.max_iterations));
  return FlowToClustering(flow);
}

Result<Clustering> RmclWarmStart(const UGraph& g,
                                 const CsrMatrix& previous_flow,
                                 std::span<const Index> touched_rows,
                                 const RmclOptions& options, int iterations,
                                 CsrMatrix* final_flow) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot cluster an empty graph");
  }
  const Index n = g.NumVertices();
  if (previous_flow.rows() != n || previous_flow.cols() != n) {
    return Status::InvalidArgument(
        "previous flow shape does not match the graph (warm starts require "
        "an unchanged vertex set)");
  }
  for (size_t i = 0; i < touched_rows.size(); ++i) {
    const Index r = touched_rows[i];
    if (r < 0 || r >= n) {
      return Status::OutOfRange("touched row out of range");
    }
    if (i > 0 && touched_rows[i - 1] >= r) {
      return Status::InvalidArgument(
          "touched rows must be sorted and unique");
    }
  }
  StageSpan span(options.metrics, "rmcl.warm_start");
  if (span.live()) {
    span.Metric("n", n);
    span.Metric("touched_rows", static_cast<int64_t>(touched_rows.size()));
  }
  CsrMatrix mg =
      BuildFlowMatrix(g, options.self_loop_scale, options.num_threads);

  // Seed M0: previous flow rows everywhere, fresh M_G rows on the touched
  // set. Serial two-cursor row splice (memcpy-bound, deterministic).
  std::vector<Offset> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (Index r = 0; r < n; ++r) {
    const bool touched =
        std::binary_search(touched_rows.begin(), touched_rows.end(), r);
    row_ptr[static_cast<size_t>(r) + 1] =
        row_ptr[static_cast<size_t>(r)] +
        (touched ? mg.RowNnz(r) : previous_flow.RowNnz(r));
  }
  std::vector<Index> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<Scalar> values(static_cast<size_t>(row_ptr.back()));
  for (Index r = 0; r < n; ++r) {
    const bool touched =
        std::binary_search(touched_rows.begin(), touched_rows.end(), r);
    const CsrMatrix& src = touched ? mg : previous_flow;
    const auto cols = src.RowCols(r);
    const auto vals = src.RowValues(r);
    const size_t at = static_cast<size_t>(row_ptr[static_cast<size_t>(r)]);
    std::copy(cols.begin(), cols.end(), col_idx.begin() + static_cast<long>(at));
    std::copy(vals.begin(), vals.end(), values.begin() + static_cast<long>(at));
  }
  // Every row is a verbatim copy of a validated source row.
  CsrMatrix m0 = CsrMatrix::FromPartsUnchecked(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
  m0.ValidateStructure("RmclWarmStart");

  DGC_ASSIGN_OR_RETURN(CsrMatrix flow,
                       RmclIterate(std::move(m0), mg, options, iterations));
  Clustering clustering = FlowToClustering(flow);
  if (span.live()) {
    span.Metric("num_clusters", clustering.NumClusters());
  }
  if (final_flow != nullptr) *final_flow = std::move(flow);
  return clustering;
}

}  // namespace dgc
