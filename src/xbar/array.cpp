#include "xbar/array.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/simd.hpp"

namespace cnash::xbar {

CellCalibration::CellCalibration(const ArrayConfig& cfg) {
  const double r_nominal = cfg.variability.r_nominal;
  auto on_current = [&](double dvth, double r) {
    const fefet::Cell1T1R cell(true, {dvth, r}, cfg.fet);
    return cell.read(true, true, cfg.bias);
  };
  // Central differences over ±1σ. A zero sigma never moves the cell, so its
  // sensitivity is zero; 0/0 would make every sampled ON current NaN, which
  // the kernels' clamp turns into zero.
  const double dv = cfg.variability.sigma_vth;
  const double dr = cfg.variability.sigma_r_rel * r_nominal;
  i_on = on_current(0.0, r_nominal);
  don_dvth = dv != 0.0 ? (on_current(dv, r_nominal) -
                          on_current(-dv, r_nominal)) / (2 * dv)
                       : 0.0;
  don_dr = dr != 0.0 ? (on_current(0.0, r_nominal + dr) -
                        on_current(0.0, r_nominal - dr)) / (2 * dr)
                     : 0.0;
  // Leakage current of a stored-'0' cell under full bias (nominal device).
  const fefet::Cell1T1R off_cell(/*stored_one=*/false, {0.0, r_nominal},
                                 cfg.fet);
  i_off = off_cell.read(true, true, cfg.bias);
  // Subthreshold conduction falls one decade per `subthreshold_swing`
  // volts of V_TH increase.
  off_decade_per_v = 1.0 / cfg.fet.subthreshold_swing;
}

namespace {

/// Linearised ON current of one sampled cell (clamped at zero).
double fast_on(const CellCalibration& cal, const fefet::CellSample& s,
               double r_nominal) {
  return std::max(0.0, cal.i_on + cal.don_dvth * s.vth_offset +
                           cal.don_dr * (s.resistance - r_nominal));
}

/// Exact exponential subthreshold leakage of one sampled OFF cell.
double fast_off(const CellCalibration& cal, const fefet::CellSample& s) {
  return cal.i_off * std::pow(10.0, -s.vth_offset * cal.off_decade_per_v);
}

}  // namespace

ProgrammedCrossbar::ProgrammedCrossbar(CrossbarMapping mapping,
                                       const ArrayConfig& config,
                                       util::Rng& rng)
    : ProgrammedCrossbar(std::move(mapping), config, CellCalibration(config),
                         rng) {}

ProgrammedCrossbar::ProgrammedCrossbar(CrossbarMapping mapping,
                                       const ArrayConfig& config,
                                       const CellCalibration& cal,
                                       util::Rng& rng)
    : mapping_(std::move(mapping)), config_(config), i_on_nominal_(cal.i_on) {
  const auto& g = mapping_.geometry();
  const std::uint32_t intervals = g.intervals;
  const std::uint32_t t = g.cells_per_element;
  const std::uint32_t per_cell = g.levels_per_cell - 1;
  table_dim_ = intervals + 1;
  block_stride_ = table_dim_ * table_dim_;

  prefix_.assign(g.n * g.m * block_stride_, 0.0);

  // Batched programming: the common configuration (device variability on, no
  // fault injection) samples all of a block's device deviates up front with
  // simd::fill_normals and scores whole I×I bundle planes per cell index k
  // with vector kernels, instead of three libm calls per cell. Deviates are
  // laid out plane-major (zv[k*B + b] for bundle b = r*I + gr) so both the
  // linearised fast path and the exact KCL path read the SAME per-cell draws
  // — the fast-vs-exact statistical-closeness contract is preserved. The
  // ideal and fault-injection configurations keep the legacy per-cell loop
  // (they draw bernoullis interleaved per cell).
  const bool batched = !config_.ideal && config_.stuck_off_rate == 0.0 &&
                       config_.stuck_on_rate == 0.0;
  const std::size_t bundles =
      static_cast<std::size_t>(intervals) * intervals;
  const std::size_t cells = bundles * t;
  const fefet::VariabilityParams& var = config_.variability;
  std::vector<double> zv, zr, zm, bundle_sum;
  std::vector<std::uint32_t> levels(t);
  if (batched) {
    zv.resize(cells);
    zr.resize(cells);
    bundle_sum.resize(bundles);
  }

  for (std::size_t i = 0; i < g.n; ++i) {
    for (std::size_t j = 0; j < g.m; ++j) {
      double* table = prefix_.data() + (i * g.m + j) * block_stride_;
      const std::uint32_t value = mapping_.element(i, j);
      if (batched) {
        bool need_mlc = false;
        std::size_t on_planes = 0;  // planes up to the last ON one
        for (std::uint32_t k = 0; k < t; ++k) {
          levels[k] = mapping_.cell_level(value, k);
          if (levels[k] > 0) on_planes = k + 1;
          if (var.sigma_mlc_rel > 0.0 && levels[k] > 0 && levels[k] < per_cell)
            need_mlc = true;
        }
        simd::fill_normals(rng, zv.data(), cells);
        // Only ON planes read zr and zm, so transform each plane-major stream
        // up to the last ON plane and step the generator over the rest. Every
        // normal read and the generator's end state are those of a full
        // fill; as cell_level fills a block's cells in order, no OFF plane
        // is transformed.
        const std::size_t on_cells = on_planes * bundles;
        const auto fill_on_prefix = [&](double* z) {
          simd::fill_normals(rng, z, on_cells);
          rng.discard(simd::normal_draws(cells) -
                      simd::normal_draws(on_cells));
        };
        fill_on_prefix(zr.data());
        if (need_mlc) {
          zm.resize(cells);
          fill_on_prefix(zm.data());
        }
        std::fill(bundle_sum.begin(), bundle_sum.end(), 0.0);
        for (std::uint32_t k = 0; k < t; ++k) {
          const std::uint32_t level = levels[k];
          const double frac =
              static_cast<double>(level) / static_cast<double>(per_cell);
          const double* zvk = zv.data() + k * bundles;
          const double* zrk = zr.data() + k * bundles;
          if (level == 0) {
            simd::off_cell_accumulate(bundle_sum.data(), zvk, bundles,
                                      cal.i_off,
                                      -var.sigma_vth * cal.off_decade_per_v);
          } else if (level == per_cell && !config_.fast_sampling) {
            // Full-ON binary state: exact series KCL solve per cell, on the
            // same deviates the fast path would use.
            for (std::size_t b = 0; b < bundles; ++b) {
              const double vth = var.sigma_vth * zvk[b];
              const double rel =
                  std::clamp(var.sigma_r_rel * zrk[b], -3.0 * var.sigma_r_rel,
                             3.0 * var.sigma_r_rel);
              const fefet::Cell1T1R cell(
                  true, {vth, var.r_nominal * (1.0 + rel)}, config_.fet);
              bundle_sum[b] += cell.read(true, true, config_.bias);
            }
          } else {
            // Full-ON (fast) or intermediate MLC state: clamped ON current
            // scaled to the level, with the partial-polarization spread that
            // peaks at mid level and vanishes at full ON.
            const double mlc_sigma =
                var.sigma_mlc_rel * 4.0 * frac * (1.0 - frac);
            const simd::OnCellParams p{cal.i_on,        cal.don_dvth,
                                       cal.don_dr,      var.sigma_vth,
                                       var.sigma_r_rel, var.r_nominal,
                                       frac,            mlc_sigma};
            simd::on_cell_accumulate(
                bundle_sum.data(), zvk, zrk,
                mlc_sigma > 0.0 ? zm.data() + k * bundles : nullptr, bundles,
                p);
          }
        }
        for (std::uint32_t r = 0; r < intervals; ++r) {
          for (std::uint32_t gr = 0; gr < intervals; ++gr) {
            const std::size_t idx = (r + 1) * table_dim_ + (gr + 1);
            table[idx] = bundle_sum[r * intervals + gr] +
                         table[r * table_dim_ + (gr + 1)] +
                         table[(r + 1) * table_dim_ + gr] -
                         table[r * table_dim_ + gr];
          }
        }
        continue;
      }
      // cell_sum[r][gr]: total current of the t cells at (row r, group gr).
      for (std::uint32_t r = 0; r < intervals; ++r) {
        for (std::uint32_t gr = 0; gr < intervals; ++gr) {
          double cell_sum = 0.0;
          for (std::uint32_t k = 0; k < t; ++k) {
            const std::uint32_t level = mapping_.cell_level(value, k);
            const double frac =
                static_cast<double>(level) / static_cast<double>(per_cell);
            // Fault injection first: a faulty cell ignores its programming.
            if (config_.stuck_off_rate > 0.0 &&
                rng.bernoulli(config_.stuck_off_rate))
              continue;
            if (config_.stuck_on_rate > 0.0 &&
                rng.bernoulli(config_.stuck_on_rate)) {
              cell_sum += i_on_nominal_;
              continue;
            }
            if (config_.ideal) {
              cell_sum += level > 0 ? frac * i_on_nominal_ : cal.i_off;
              continue;
            }
            const fefet::CellSample s =
                fefet::sample_cell(config_.variability, rng);
            if (level == 0) {
              cell_sum += fast_off(cal, s);
            } else if (level == per_cell && !config_.fast_sampling) {
              // Full-ON binary state: exact series KCL solve available.
              const fefet::Cell1T1R cell(true, s, config_.fet);
              cell_sum += cell.read(true, true, config_.bias);
            } else {
              // Full-ON (fast) or intermediate MLC state: clamped ON current
              // scaled to the level, with the partial-polarization spread
              // that peaks at mid level and vanishes at full ON.
              double i = frac * fast_on(cal, s, var.r_nominal);
              const double mlc_sigma = config_.variability.sigma_mlc_rel *
                                       4.0 * frac * (1.0 - frac);
              if (mlc_sigma > 0.0) i *= 1.0 + rng.normal(0.0, mlc_sigma);
              cell_sum += std::max(0.0, i);
            }
          }
          // Inclusion-exclusion prefix update.
          const std::size_t idx = (r + 1) * table_dim_ + (gr + 1);
          table[idx] = cell_sum + table[r * table_dim_ + (gr + 1)] +
                       table[(r + 1) * table_dim_ + gr] -
                       table[r * table_dim_ + gr];
        }
      }
    }
  }

  // Per-column MV table: the last prefix row (r = I) of every block,
  // transposed so the n line currents of one (j, g) column are contiguous.
  mv_table_.assign(g.m * table_dim_ * g.n, 0.0);
  for (std::size_t j = 0; j < g.m; ++j)
    for (std::size_t gr = 0; gr < table_dim_; ++gr) {
      double* col = mv_table_.data() + (j * table_dim_ + gr) * g.n;
      for (std::size_t i = 0; i < g.n; ++i)
        col[i] = block_table(i, j)[intervals * table_dim_ + gr];
    }
}

std::vector<double> ProgrammedCrossbar::read_mv(
    const std::vector<std::uint32_t>& groups_active) const {
  std::vector<double> out(mapping_.geometry().n);
  read_mv_into(groups_active, out.data());
  return out;
}

void ProgrammedCrossbar::read_mv_into(
    const std::vector<std::uint32_t>& groups_active, double* out) const {
  const auto& g = mapping_.geometry();
  if (groups_active.size() != g.m)
    throw std::invalid_argument("read_mv: activation size mismatch");
  for (std::size_t j = 0; j < g.m; ++j)
    if (groups_active[j] > g.intervals)
      throw std::invalid_argument("groups_active > I");
  read_mv_into(groups_active.data(), out);
}

void ProgrammedCrossbar::read_mv_into(const std::uint32_t* groups_active,
                                      double* out) const {
  const auto& g = mapping_.geometry();
  std::fill(out, out + g.n, 0.0);
  // Accumulate one contiguous n-vector per block column — the SoA layout
  // turns the MV read into m contiguous vector additions.
  for (std::size_t j = 0; j < g.m; ++j) {
    const double* col =
        mv_table_.data() + (j * table_dim_ + groups_active[j]) * g.n;
    simd::accumulate(out, col, g.n);
  }
}

double ProgrammedCrossbar::read_vmv(
    const std::vector<std::uint32_t>& rows_active,
    const std::vector<std::uint32_t>& groups_active) const {
  const auto& g = mapping_.geometry();
  if (rows_active.size() != g.n || groups_active.size() != g.m)
    throw std::invalid_argument("read_vmv: activation size mismatch");
  for (std::size_t i = 0; i < g.n; ++i)
    if (rows_active[i] > g.intervals)
      throw std::invalid_argument("rows_active > I");
  for (std::size_t j = 0; j < g.m; ++j)
    if (groups_active[j] > g.intervals)
      throw std::invalid_argument("groups_active > I");
  return read_vmv(rows_active.data(), groups_active.data());
}

double ProgrammedCrossbar::read_vmv(const std::uint32_t* rows_active,
                                    const std::uint32_t* groups_active) const {
  const auto& g = mapping_.geometry();
  double total = 0.0;
  for (std::size_t i = 0; i < g.n; ++i) {
    const double* row = block_table(i, 0) + rows_active[i] * table_dim_;
    for (std::size_t j = 0; j < g.m; ++j)
      total += row[j * block_stride_ + groups_active[j]];
  }
  return total;
}

void ProgrammedCrossbar::mv_group_delta(std::size_t j, std::uint32_t g_old,
                                        std::uint32_t g_new, double* mv) const {
  const auto& g = mapping_.geometry();
  if (j >= g.m || g_old > g.intervals || g_new > g.intervals)
    throw std::out_of_range("mv_group_delta");
  const double* cold = mv_table_.data() + (j * table_dim_ + g_old) * g.n;
  const double* cnew = mv_table_.data() + (j * table_dim_ + g_new) * g.n;
  simd::add_diff(mv, cnew, cold, g.n);
}

double ProgrammedCrossbar::vmv_row_delta(
    std::size_t i, std::uint32_t r_old, std::uint32_t r_new,
    const std::vector<std::uint32_t>& groups_active) const {
  const auto& g = mapping_.geometry();
  if (i >= g.n || r_old > g.intervals || r_new > g.intervals ||
      groups_active.size() != g.m)
    throw std::out_of_range("vmv_row_delta");
  return vmv_row_delta(i, r_old, r_new, groups_active.data());
}

double ProgrammedCrossbar::vmv_row_delta(std::size_t i, std::uint32_t r_old,
                                         std::uint32_t r_new,
                                         const std::uint32_t* groups_active)
    const {
  const auto& g = mapping_.geometry();
  const double* base = block_table(i, 0);
  const std::size_t off_new = r_new * table_dim_;
  const std::size_t off_old = r_old * table_dim_;
  double delta = 0.0;
  for (std::size_t j = 0; j < g.m; ++j) {
    const double* table = base + j * block_stride_;
    const std::uint32_t gr = groups_active[j];
    delta += table[off_new + gr] - table[off_old + gr];
  }
  return delta;
}

double ProgrammedCrossbar::vmv_group_delta(
    std::size_t j, std::uint32_t g_old, std::uint32_t g_new,
    const std::vector<std::uint32_t>& rows_active) const {
  const auto& g = mapping_.geometry();
  if (j >= g.m || g_old > g.intervals || g_new > g.intervals ||
      rows_active.size() != g.n)
    throw std::out_of_range("vmv_group_delta");
  return vmv_group_delta(j, g_old, g_new, rows_active.data());
}

double ProgrammedCrossbar::vmv_group_delta(std::size_t j, std::uint32_t g_old,
                                           std::uint32_t g_new,
                                           const std::uint32_t* rows_active)
    const {
  const auto& g = mapping_.geometry();
  double delta = 0.0;
  for (std::size_t i = 0; i < g.n; ++i) {
    const double* row = block_table(i, j) + rows_active[i] * table_dim_;
    delta += row[g_new] - row[g_old];
  }
  return delta;
}

double ProgrammedCrossbar::sampled_cell_current(std::size_t row,
                                                std::size_t col) const {
  // Reconstructing a single sampled cell's current is not possible from the
  // prefix tables alone; derive it by inclusion-exclusion over its block — the
  // difference of four prefix entries isolates the (row, group) cell bundle,
  // which is the finest physical granularity the source line can observe.
  const auto ra = mapping_.row_address(row);
  const auto ca = mapping_.col_address(col);
  const double* table = block_table(ra.i, ca.j);
  const std::size_t r = ra.row_in_block;
  const std::size_t gr = ca.group;
  const double bundle = table[(r + 1) * table_dim_ + (gr + 1)] -
                        table[r * table_dim_ + (gr + 1)] -
                        table[(r + 1) * table_dim_ + gr] +
                        table[r * table_dim_ + gr];
  return bundle / mapping_.geometry().cells_per_element;
}

double ProgrammedCrossbar::read_vmv_percell(
    const std::vector<std::uint32_t>& rows_active,
    const std::vector<std::uint32_t>& groups_active) const {
  const auto& g = mapping_.geometry();
  if (rows_active.size() != g.n || groups_active.size() != g.m)
    throw std::invalid_argument("read_vmv_percell: activation size mismatch");
  double total = 0.0;
  for (std::size_t row = 0; row < g.total_rows(); ++row) {
    const auto ra = mapping_.row_address(row);
    if (ra.row_in_block >= rows_active[ra.i]) continue;
    for (std::size_t col = 0; col < g.total_cols(); ++col) {
      const auto ca = mapping_.col_address(col);
      if (ca.group >= groups_active[ca.j]) continue;
      total += sampled_cell_current(row, col) ;
    }
  }
  return total;
}

double ProgrammedCrossbar::unit_current() const {
  return i_on_nominal_ /
         static_cast<double>(mapping_.geometry().levels_per_cell - 1);
}

double ProgrammedCrossbar::current_to_value(double current) const {
  const double intervals = mapping_.geometry().intervals;
  return current / (unit_current() * intervals * intervals);
}

}  // namespace cnash::xbar
