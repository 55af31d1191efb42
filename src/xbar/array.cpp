#include "xbar/array.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "simd/simd.hpp"

namespace cnash::xbar {

namespace {

/// The variability-free device numbers programming derives from an
/// ArrayConfig alone: the nominal ON and OFF cell reads and the calibrated
/// response surface of fast sampling. Calibrating costs several series-KCL
/// solves, so one programming pass calibrates once for all its arrays.
struct CellCalibration {
  explicit CellCalibration(const ArrayConfig& config);

  double i_on;      // nominal full-ON cell current
  double i_off;     // nominal stored-'0' leakage under full bias
  double don_dvth;  // ON-current sensitivity to ΔV_TH (0 when sigma_vth = 0)
  double don_dr;    // ON-current sensitivity to ΔR (0 when sigma_r_rel = 0)
  double off_decade_per_v;  // subthreshold leakage decades per volt of ΔV_TH
};

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

/// One element block to program: its payoff value and the prefix table, in
/// whichever array holds the block, that its bundle sums go into.
struct BlockSlot {
  std::uint32_t value;
  double* table;
};

/// What sampling a block needs besides its slot. `coding` is any of the
/// programmed arrays' mappings: they share I, t and the cell coding.
struct Sampler {
  const CrossbarMapping& coding;
  const ArrayConfig& config;
  const CellCalibration& cal;
};

/// Folds a block's I×I bundle sums into its (I+1)² prefix table, in place:
/// P[r+1][g+1] = ((bundle + P[r][g+1]) + P[r+1][g]) - P[r][g].
void write_prefix(double* table, const double* bundle,
                  std::uint32_t intervals) {
  const std::size_t dim = intervals + 1;
  for (std::uint32_t r = 0; r < intervals; ++r)
    for (std::uint32_t gr = 0; gr < intervals; ++gr)
      table[(r + 1) * dim + (gr + 1)] = bundle[r * intervals + gr] +
                                        table[r * dim + (gr + 1)] +
                                        table[(r + 1) * dim + gr] -
                                        table[r * dim + gr];
}

/// The ideal and fault-injection configurations: cell by cell, with the
/// bernoulli draws interleaved, so a block's draw count depends on outcomes
/// and the blocks are sampled in order from `rng` itself.
void program_per_cell(const std::vector<BlockSlot>& blocks, const Sampler& s,
                      util::Rng& rng) {
  const MappingGeometry& g = s.coding.geometry();
  const std::uint32_t intervals = g.intervals;
  const std::uint32_t t = g.cells_per_element;
  const std::uint32_t per_cell = g.levels_per_cell - 1;
  const ArrayConfig& config = s.config;
  const fefet::VariabilityParams& var = config.variability;
  std::vector<double> bundle(static_cast<std::size_t>(intervals) * intervals);
  for (const BlockSlot& block : blocks) {
    // bundle[r*I + gr]: total current of the t cells at (row r, group gr).
    for (std::uint32_t r = 0; r < intervals; ++r) {
      for (std::uint32_t gr = 0; gr < intervals; ++gr) {
        double cell_sum = 0.0;
        for (std::uint32_t k = 0; k < t; ++k) {
          const std::uint32_t level = s.coding.cell_level(block.value, k);
          const double frac =
              static_cast<double>(level) / static_cast<double>(per_cell);
          // Fault injection first: a faulty cell ignores its programming.
          if (config.stuck_off_rate > 0.0 &&
              rng.bernoulli(config.stuck_off_rate))
            continue;
          if (config.stuck_on_rate > 0.0 &&
              rng.bernoulli(config.stuck_on_rate)) {
            cell_sum += s.cal.i_on;
            continue;
          }
          if (config.ideal) {
            cell_sum += level > 0 ? frac * s.cal.i_on : s.cal.i_off;
            continue;
          }
          const fefet::CellSample cs = fefet::sample_cell(var, rng);
          if (level == 0) {
            cell_sum += fast_off(s.cal, cs);
          } else if (level == per_cell && !config.fast_sampling) {
            // Full-ON binary state: exact series KCL solve available.
            const fefet::Cell1T1R cell(true, cs, config.fet);
            cell_sum += cell.read(true, true, config.bias);
          } else {
            // Full-ON (fast) or intermediate MLC state: clamped ON current
            // scaled to the level, with the partial-polarization spread
            // that peaks at mid level and vanishes at full ON.
            double i = frac * fast_on(s.cal, cs, var.r_nominal);
            const double mlc_sigma =
                var.sigma_mlc_rel * 4.0 * frac * (1.0 - frac);
            if (mlc_sigma > 0.0) i *= 1.0 + rng.normal(0.0, mlc_sigma);
            cell_sum += std::max(0.0, i);
          }
        }
        bundle[r * intervals + gr] = cell_sum;
      }
    }
    write_prefix(block.table, bundle.data(), intervals);
  }
}

/// How a block of the batched configuration is sampled. Deviates are laid
/// out plane-major (zv[k*B + b] for bundle b = r*I + gr), one normal stream
/// each for V_TH (zv), the resistor (zr) and, in blocks with an
/// intermediate-level plane under sigma_mlc_rel > 0, the MLC spread (zm).
/// Every stream takes normal_draws(I²t) draws, but only the ON planes read
/// zr and zm, and as cell_level fills a block's cells in order those are the
/// first on_planes planes.
struct BlockPlan {
  std::size_t on_planes = 0;  // planes up to the last ON one
  bool mlc = false;

  BlockPlan(const Sampler& s, std::uint32_t value) {
    const MappingGeometry& g = s.coding.geometry();
    const std::uint32_t per_cell = g.levels_per_cell - 1;
    for (std::uint32_t k = 0; k < g.cells_per_element; ++k) {
      const std::uint32_t level = s.coding.cell_level(value, k);
      if (level > 0) on_planes = k + 1;
      if (s.config.variability.sigma_mlc_rel > 0.0 && level > 0 &&
          level < per_cell)
        mlc = true;
    }
  }
  std::size_t streams() const { return mlc ? 3 : 2; }
};

/// Scores one block from its normals: zv holds its I²t V_TH deviates, zr
/// and (in MLC blocks) zm the first on_planes·I² of their streams. `bundle`
/// is I² doubles of scratch.
void score_block(const Sampler& s, const BlockSlot& block, const double* zv,
                 const double* zr, const double* zm, double* bundle) {
  const MappingGeometry& g = s.coding.geometry();
  const std::size_t bundles =
      static_cast<std::size_t>(g.intervals) * g.intervals;
  const std::uint32_t per_cell = g.levels_per_cell - 1;
  const ArrayConfig& config = s.config;
  const fefet::VariabilityParams& var = config.variability;
  const CellCalibration& cal = s.cal;
  std::fill(bundle, bundle + bundles, 0.0);
  for (std::uint32_t k = 0; k < g.cells_per_element; ++k) {
    const std::uint32_t level = s.coding.cell_level(block.value, k);
    const double frac =
        static_cast<double>(level) / static_cast<double>(per_cell);
    const double* zvk = zv + k * bundles;
    const double* zrk = zr + k * bundles;
    if (level == 0) {
      simd::off_cell_accumulate(bundle, zvk, bundles, cal.i_off,
                                -var.sigma_vth * cal.off_decade_per_v);
    } else if (level == per_cell && !config.fast_sampling) {
      // Full-ON binary state: exact series KCL solve per cell, on the same
      // deviates the fast path would use.
      for (std::size_t b = 0; b < bundles; ++b) {
        const double vth = var.sigma_vth * zvk[b];
        const double rel =
            std::clamp(var.sigma_r_rel * zrk[b], -3.0 * var.sigma_r_rel,
                       3.0 * var.sigma_r_rel);
        const fefet::Cell1T1R cell(true, {vth, var.r_nominal * (1.0 + rel)},
                                   config.fet);
        bundle[b] += cell.read(true, true, config.bias);
      }
    } else {
      // Full-ON (fast) or intermediate MLC state: clamped ON current scaled
      // to the level, with the partial-polarization spread that peaks at mid
      // level and vanishes at full ON.
      const double mlc_sigma = var.sigma_mlc_rel * 4.0 * frac * (1.0 - frac);
      const simd::OnCellParams p{cal.i_on,        cal.don_dvth,
                                 cal.don_dr,      var.sigma_vth,
                                 var.sigma_r_rel, var.r_nominal,
                                 frac,            mlc_sigma};
      simd::on_cell_accumulate(bundle, zvk, zrk,
                               mlc_sigma > 0.0 ? zm + k * bundles : nullptr,
                               bundles, p);
    }
  }
  write_prefix(block.table, bundle, g.intervals);
}

/// The most draws generator lanes buffer at once (4 MiB). Lanes hold
/// kRngLanes blocks' draws where drawing in order holds one block's
/// normals; on blocks larger than this allows, lanes' speed is not worth
/// that memory.
constexpr std::size_t kMaxLaneDraws = std::size_t{1} << 19;

/// The batched configuration (device variability on, no fault injection):
/// every block's draw count is known up front. When each of the kRngLanes
/// lanes gets a block and their scratch fits kMaxLaneDraws, the blocks split
/// into kRngLanes contiguous ranges and lane l, jumped to the first draw of
/// its range, samples it while the others sample theirs: block k of every
/// range is drawn in one lockstep call, then scored from its own lane's
/// draws. Otherwise the blocks are drawn in order from `rng`. Either way
/// `rng` ends where drawing in order ends.
void program_batched(const std::vector<BlockSlot>& blocks, const Sampler& s,
                     util::Rng& rng) {
  constexpr std::size_t kLanes = simd::kRngLanes;
  const MappingGeometry& g = s.coding.geometry();
  const std::size_t bundles =
      static_cast<std::size_t>(g.intervals) * g.intervals;
  const std::size_t cells = bundles * g.cells_per_element;
  const std::size_t stream = simd::normal_draws(cells);
  // A plan costs t cell_level calls, so it is recomputed where needed
  // rather than stored per block.
  const auto plan = [&](std::size_t b) {
    return BlockPlan(s, blocks[b].value);
  };
  bool any_mlc = false;
  for (std::size_t b = 0; b < blocks.size() && !any_mlc; ++b)
    any_mlc = plan(b).mlc;
  const std::size_t most = (any_mlc ? 3 : 2) * stream;
  std::vector<double> zv(cells), zr(cells), zm(any_mlc ? cells : 0),
      bundle(bundles);
  const auto score = [&](std::size_t b) {
    score_block(s, blocks[b], zv.data(), zr.data(), zm.data(), bundle.data());
  };

  if (blocks.size() < kLanes || kLanes * most > kMaxLaneDraws) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      // zr and zm are transformed up to the last ON plane; the generator
      // steps over the rest of their streams.
      const BlockPlan p = plan(b);
      const std::size_t on_cells = p.on_planes * bundles;
      const auto fill_on_prefix = [&](double* z) {
        simd::fill_normals(rng, z, on_cells);
        rng.discard(stream - simd::normal_draws(on_cells));
      };
      simd::fill_normals(rng, zv.data(), cells);
      fill_on_prefix(zr.data());
      if (p.mlc) fill_on_prefix(zm.data());
      score(b);
    }
    return;
  }

  // Lane l samples blocks [first[l], first[l+1]). Each lane starts from the
  // one before it, so equal ranges in a row share one jump polynomial.
  std::array<std::size_t, kLanes + 1> first;
  for (std::size_t l = 0; l <= kLanes; ++l)
    first[l] = blocks.size() * l / kLanes;
  std::array<util::Rng, kLanes> lanes;
  lanes[0] = rng;
  std::uint64_t distance = 0;
  util::JumpPolynomial poly = util::jump_polynomial(distance);
  for (std::size_t l = 1; l < kLanes; ++l) {
    std::uint64_t skip = 0;
    for (std::size_t b = first[l - 1]; b < first[l]; ++b)
      skip += plan(b).streams() * stream;
    if (skip != distance) {
      distance = skip;
      poly = util::jump_polynomial(distance);
    }
    lanes[l] = lanes[l - 1];
    lanes[l].jump(poly);
  }

  // Left uninitialised: a lane writes each draw before it is read.
  const auto raw =
      std::make_unique_for_overwrite<std::uint64_t[]>(kLanes * most);
  std::array<std::uint64_t*, kLanes> out;
  for (std::size_t l = 0; l < kLanes; ++l) out[l] = raw.get() + l * most;
  const std::size_t rounds = first[kLanes] - first[kLanes - 1];
  for (std::size_t k = 0; k < rounds; ++k) {
    std::array<std::size_t, kLanes> count{};
    for (std::size_t l = 0; l < kLanes; ++l)
      if (first[l] + k < first[l + 1])
        count[l] = plan(first[l] + k).streams() * stream;
    simd::fill_lanes(lanes.data(), out.data(), count.data());
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (count[l] == 0) continue;
      const std::size_t b = first[l] + k;
      const BlockPlan p = plan(b);
      const std::size_t on_cells = p.on_planes * bundles;
      simd::normals_from_draws(out[l], zv.data(), cells);
      simd::normals_from_draws(out[l] + stream, zr.data(), on_cells);
      if (p.mlc)
        simd::normals_from_draws(out[l] + 2 * stream, zm.data(), on_cells);
      score(b);
    }
  }
  rng = lanes[kLanes - 1];
}

}  // namespace

ProgrammedCrossbar::ProgrammedCrossbar(CrossbarMapping mapping,
                                       const ArrayConfig& config)
    : mapping_(std::move(mapping)), config_(config) {
  const auto& g = mapping_.geometry();
  table_dim_ = g.intervals + 1;
  block_stride_ = table_dim_ * table_dim_;
  prefix_.assign(g.n * g.m * block_stride_, 0.0);
}

ProgrammedCrossbar::ProgrammedCrossbar(CrossbarMapping mapping,
                                       const ArrayConfig& config,
                                       util::Rng& rng)
    : ProgrammedCrossbar(std::move(mapping), config) {
  program({this, 1}, rng);
}

std::vector<ProgrammedCrossbar> ProgrammedCrossbar::program_all(
    std::vector<CrossbarMapping> mappings, const ArrayConfig& config,
    util::Rng& rng) {
  std::vector<ProgrammedCrossbar> arrays;
  arrays.reserve(mappings.size());
  for (CrossbarMapping& map : mappings)
    arrays.push_back(ProgrammedCrossbar(std::move(map), config));
  if (!arrays.empty()) program(arrays, rng);
  return arrays;
}

void ProgrammedCrossbar::program(std::span<ProgrammedCrossbar> arrays,
                                 util::Rng& rng) {
  const CrossbarMapping& coding = arrays.front().mapping_;
  const ArrayConfig& config = arrays.front().config_;
  const MappingGeometry& shape = coding.geometry();
  std::vector<BlockSlot> blocks;
  for (ProgrammedCrossbar& a : arrays) {
    const MappingGeometry& g = a.mapping_.geometry();
    if (g.intervals != shape.intervals ||
        g.cells_per_element != shape.cells_per_element ||
        g.levels_per_cell != shape.levels_per_cell)
      throw std::invalid_argument(
          "ProgrammedCrossbar: arrays programmed together must share I, t "
          "and levels_per_cell");
    for (std::size_t i = 0; i < g.n; ++i)
      for (std::size_t j = 0; j < g.m; ++j)
        blocks.push_back({a.mapping_.element(i, j),
                          a.prefix_.data() + (i * g.m + j) * a.block_stride_});
  }

  const CellCalibration cal(config);
  const Sampler sampler{coding, config, cal};
  if (!config.ideal && config.stuck_off_rate == 0.0 &&
      config.stuck_on_rate == 0.0)
    program_batched(blocks, sampler, rng);
  else
    program_per_cell(blocks, sampler, rng);

  // Per-column MV table: the last prefix row (r = I) of every block,
  // transposed so the n line currents of one (j, g) column are contiguous.
  for (ProgrammedCrossbar& a : arrays) {
    a.i_on_nominal_ = cal.i_on;
    const MappingGeometry& g = a.mapping_.geometry();
    a.mv_table_.assign(g.m * a.table_dim_ * g.n, 0.0);
    for (std::size_t j = 0; j < g.m; ++j)
      for (std::size_t gr = 0; gr < a.table_dim_; ++gr) {
        double* col = a.mv_table_.data() + (j * a.table_dim_ + gr) * g.n;
        for (std::size_t i = 0; i < g.n; ++i)
          col[i] = a.block_table(i, j)[g.intervals * a.table_dim_ + gr];
      }
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
