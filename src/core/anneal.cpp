#include "core/anneal.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cnash::core {

namespace {

/// Draw one probability-tick move between two distinct actions of a strategy:
/// source uniformly among actions currently holding mass, destination
/// uniformly among the others. Returns false (consuming no randomness) for
/// single-action strategies.
bool draw_tick_move(const game::QuantizedStrategy& s, util::Rng& rng,
                    std::uint32_t& from, std::uint32_t& to) {
  const std::size_t n = s.num_actions();
  if (n < 2) return false;
  std::size_t src = 0;
  std::size_t holders = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (s.count(i) > 0 && rng.uniform_index(++holders) == 0) src = i;
  std::size_t dst = rng.uniform_index(n - 1);
  if (dst >= src) ++dst;
  from = static_cast<std::uint32_t>(src);
  to = static_cast<std::uint32_t>(dst);
  return true;
}

/// The geometric cooling schedule, derived from the game's payoff range.
struct TempSchedule {
  double t_max;
  double decay;
};

TempSchedule sa_schedule(const game::BimatrixGame& g, const SaOptions& opts) {
  const double range =
      std::max({g.payoff1().max_element() - g.payoff1().min_element(),
                g.payoff2().max_element() - g.payoff2().min_element(), 1e-9});
  const double t_max = opts.t_start_rel * range;
  const double t_min = std::max(opts.t_end_rel * range, 1e-12);
  const double decay =
      (opts.iterations > 1)
          ? std::pow(t_min / t_max,
                     1.0 / static_cast<double>(opts.iterations - 1))
          : 1.0;
  return {t_max, decay};
}

game::QuantizedProfile sa_draw_initial(const game::BimatrixGame& g,
                                       std::uint32_t intervals,
                                       const SaOptions& opts, util::Rng& rng) {
  auto draw = [&](std::size_t actions) {
    return opts.init == SaInit::kRandomSupport
               ? game::QuantizedStrategy::random_support(actions, intervals,
                                                         rng)
               : game::QuantizedStrategy::random(actions, intervals, rng);
  };
  return {draw(g.num_actions1()), draw(g.num_actions2())};
}

/// One SA lane: the per-run state. A scalar run steps one lane; the
/// replica-exchange driver steps its replicas' lanes in lockstep through the
/// same start/step code, so the two can never drift apart.
struct SaLane {
  SaLane(ObjectiveEvaluator& objective, game::QuantizedProfile initial,
         double f0)
      : res{initial,          f0, std::move(initial), f0,
            /*accepted=*/0,
            /*iterations=*/0, /*evaluations=*/1},
        obj(&objective),
        // Incremental fast path: evaluators exposing the propose/commit
        // protocol score each candidate in O(m+n) from the move list instead
        // of a full re-evaluation. The RNG draw sequence is identical on both
        // paths.
        inc(objective.incremental()),
        // Candidate buffer for the full-evaluation path only; the incremental
        // path mutates res.final_profile in place (apply, then undo on
        // rejection) instead of copying the whole profile every iteration.
        candidate(res.final_profile) {
    if (inc) inc->reset(res.final_profile);
  }

  SaRunResult res;
  ObjectiveEvaluator* obj;
  IncrementalEvaluator* inc;
  game::QuantizedProfile candidate;  // full-evaluation path scratch
};

SaLane sa_lane_start(ObjectiveEvaluator& objective,
                     game::QuantizedProfile initial) {
  const double f0 = objective.evaluate(initial);
  return SaLane(objective, std::move(initial), f0);
}

void sa_lane_step(SaLane& lane, const SaOptions& opts, double temperature,
                  util::Rng& rng) {
  SaRunResult& res = lane.res;
  // Perturb one player always, the other with configured probability —
  // both-player moves are required to hop between equilibria of
  // coordination-style games.
  TickMove moves[2];
  std::size_t num_moves = 0;
  auto draw_p = [&] {
    std::uint32_t from, to;
    if (draw_tick_move(res.final_profile.p, rng, from, to))
      moves[num_moves++] = {TickMove::Player::kRow, from, to};
  };
  auto draw_q = [&] {
    std::uint32_t from, to;
    if (draw_tick_move(res.final_profile.q, rng, from, to))
      moves[num_moves++] = {TickMove::Player::kCol, from, to};
  };
  if (rng.bernoulli(0.5)) {
    draw_p();
    if (rng.bernoulli(opts.both_players_prob)) draw_q();
  } else {
    draw_q();
    if (rng.bernoulli(opts.both_players_prob)) draw_p();
  }

  double f_n;
  if (lane.inc) {
    for (std::size_t i = 0; i < num_moves; ++i) {
      auto& s = moves[i].player == TickMove::Player::kRow ? res.final_profile.p
                                                          : res.final_profile.q;
      s.move_tick(moves[i].from, moves[i].to);
    }
    f_n = lane.inc->propose(moves, num_moves);
  } else {
    lane.candidate = res.final_profile;
    for (std::size_t i = 0; i < num_moves; ++i) {
      auto& s = moves[i].player == TickMove::Player::kRow ? lane.candidate.p
                                                          : lane.candidate.q;
      s.move_tick(moves[i].from, moves[i].to);
    }
    f_n = lane.obj->evaluate(lane.candidate);
  }
  ++res.evaluations;
  const double delta = f_n - res.final_objective;
  if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
    if (lane.inc) {
      lane.inc->commit();
    } else {
      res.final_profile = lane.candidate;
    }
    res.final_objective = f_n;
    ++res.accepted;
    if (f_n < res.best_objective) {
      res.best_objective = f_n;
      res.best_profile = res.final_profile;
    }
  } else if (lane.inc) {
    // Rejected: undo the in-place moves (reverse order, ticks swapped).
    for (std::size_t i = num_moves; i-- > 0;) {
      auto& s = moves[i].player == TickMove::Player::kRow ? res.final_profile.p
                                                          : res.final_profile.q;
      s.move_tick(moves[i].to, moves[i].from);
    }
  }
  ++res.iterations;
}

}  // namespace

SaRunResult simulated_annealing(ObjectiveEvaluator& objective,
                                std::uint32_t intervals, const SaOptions& opts,
                                util::Rng& rng) {
  return simulated_annealing_from(
      objective, sa_draw_initial(objective.game(), intervals, opts, rng), opts,
      rng);
}

SaRunResult simulated_annealing_from(ObjectiveEvaluator& objective,
                                     game::QuantizedProfile initial,
                                     const SaOptions& opts, util::Rng& rng) {
  if (opts.iterations == 0)
    throw std::invalid_argument("simulated_annealing: zero iterations");

  const TempSchedule sched = sa_schedule(objective.game(), opts);
  SaLane lane = sa_lane_start(objective, std::move(initial));
  double temperature = sched.t_max;
  for (std::size_t it = 0; it < opts.iterations;
       ++it, temperature *= sched.decay)
    sa_lane_step(lane, opts, temperature, rng);
  return std::move(lane.res);
}

std::vector<SaRunResult> simulated_annealing_replica_exchange(
    const std::vector<std::unique_ptr<ObjectiveEvaluator>>& replicas,
    std::uint32_t intervals, const SaOptions& opts, util::Rng* lane_rngs,
    util::Rng& swap_rng) {
  if (opts.iterations == 0)
    throw std::invalid_argument(
        "simulated_annealing_replica_exchange: zero iterations");
  const std::size_t r = replicas.size();
  if (r < 2)
    throw std::invalid_argument(
        "simulated_annealing_replica_exchange: need >= 2 replicas");
  if (opts.exchange_interval == 0)
    throw std::invalid_argument(
        "simulated_annealing_replica_exchange: exchange_interval must be >= 1");
  if (!(opts.ladder_ratio > 1.0))
    throw std::invalid_argument(
        "simulated_annealing_replica_exchange: ladder_ratio must be > 1");

  const TempSchedule sched = sa_schedule(replicas[0]->game(), opts);
  // Ladder position 0 anneals at the base schedule; position k at
  // base_T * ratio^k. Swaps exchange TEMPERATURES (ladder positions), not
  // replica states — cheaper than swapping profiles and identical in law.
  std::vector<double> ladder(r);
  ladder[0] = 1.0;
  for (std::size_t p = 1; p < r; ++p) ladder[p] = ladder[p - 1] * opts.ladder_ratio;
  std::vector<std::size_t> at(r);      // at[pos]    = lane at ladder position
  std::vector<std::size_t> pos_of(r);  // pos_of[l]  = lane l's ladder position
  std::iota(at.begin(), at.end(), std::size_t{0});
  std::iota(pos_of.begin(), pos_of.end(), std::size_t{0});

  std::vector<SaLane> lanes;
  lanes.reserve(r);
  for (std::size_t l = 0; l < r; ++l)
    lanes.push_back(sa_lane_start(
        *replicas[l],
        sa_draw_initial(replicas[l]->game(), intervals, opts, lane_rngs[l])));

  double base_t = sched.t_max;
  std::size_t swap_proposals = 0;
  std::size_t swap_accepts = 0;
  for (std::size_t it = 0; it < opts.iterations;
       ++it, base_t *= sched.decay) {
    for (std::size_t l = 0; l < r; ++l)
      sa_lane_step(lanes[l], opts, base_t * ladder[pos_of[l]], lane_rngs[l]);

    if ((it + 1) % opts.exchange_interval == 0) {
      // One sweep of adjacent-pair swap proposals, coldest first. Exactly one
      // uniform is consumed per proposal whatever the outcome, so the
      // swap stream is a fixed function of the iteration index.
      for (std::size_t pos = 0; pos + 1 < r; ++pos) {
        const std::size_t a = at[pos];      // colder replica
        const std::size_t b = at[pos + 1];  // hotter replica
        const double t_cold = base_t * ladder[pos];
        const double t_hot = base_t * ladder[pos + 1];
        const double u = swap_rng.uniform();
        // Metropolis on the joint chain: accept with
        // min(1, exp((1/T_cold - 1/T_hot) * (f_cold - f_hot))).
        const double arg = (1.0 / t_cold - 1.0 / t_hot) *
                           (lanes[a].res.final_objective -
                            lanes[b].res.final_objective);
        ++swap_proposals;
        if (arg >= 0.0 || u < std::exp(arg)) {
          ++swap_accepts;
          at[pos] = b;
          at[pos + 1] = a;
          pos_of[a] = pos + 1;
          pos_of[b] = pos;
        }
      }
    }
  }

  std::vector<SaRunResult> out;
  out.reserve(r);
  for (SaLane& lane : lanes) {
    lane.res.swap_proposals = swap_proposals;
    lane.res.swap_accepts = swap_accepts;
    out.push_back(std::move(lane.res));
  }
  return out;
}

}  // namespace cnash::core
