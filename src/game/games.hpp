#pragma once
// The benchmark game library.
//
// The C-Nash paper evaluates three instances taken from Khan et al. [8]:
// "Battle of the Sexes" (2 actions), "Bird Game" (3 actions) and "Modified
// Prisoner's Dilemma" (8 actions). Only Battle of the Sexes is fully specified
// by the open literature; the other two payoff matrices are reconstructed here
// (README, "Benchmark game substitutions") with the published action counts
// and a rich set of pure *and* mixed equilibria, all representable on the
// instance's quantization grid so the C-Nash hardware can express them
// exactly.
//
// Classic 2x2/3x3 games are included for unit tests and examples.

#include <cstdint>
#include <vector>

#include "game/game.hpp"

namespace cnash::game {

/// One evaluation instance: game + solver parameters used in Sec. 4.2.
struct BenchmarkInstance {
  BimatrixGame game;
  std::uint32_t intervals;        // quantization I such that all NE on grid
  std::size_t sa_iterations;       // paper: 10000 / 15000 / 50000
  std::size_t expected_equilibria; // ground-truth count (ours)
  std::size_t paper_target_equilibria;  // count reported in the paper (Fig. 9)
};

/// Battle of the Sexes: M=[[2,0],[0,1]], N=[[1,0],[0,2]].
/// 3 NE: two pure coordination outcomes + mixed ((2/3,1/3),(1/3,2/3)).
BimatrixGame battle_of_sexes();

/// Bird Game (reconstructed): two birds choosing among three nesting
/// behaviours with coordination payoffs diag(2,2,1). 7 NE: 3 pure, 3 pairwise
/// mixed, 1 full-support mixed — all with denominators dividing 12.
/// (Paper target is 6 solutions; see the README's game substitutions.)
BimatrixGame bird_game();

/// Modified Prisoner's Dilemma (reconstructed, 8 actions): five cooperative
/// ventures that pay off only when both players focus on the same one, a
/// "defect" action with a small guaranteed payoff against cooperation (the PD
/// temptation, never quite enough to beat coordinated cooperation), and two
/// spiteful actions that are strictly dominated. 31 NE: 5 pure + 26 mixed
/// (uniform on every venture subset), all with denominators dividing 60.
/// (Paper target is 25 solutions; an index-theorem argument shows 25 cannot
/// be realised by a non-degenerate game of the paper's flavour — see the
/// README's game substitutions.)
BimatrixGame modified_prisoners_dilemma();

// -- Classic games for tests/examples ---------------------------------------

/// Prisoner's Dilemma: unique pure NE (Defect, Defect).
BimatrixGame prisoners_dilemma();
/// Matching Pennies: zero-sum, unique mixed NE (1/2,1/2)x(1/2,1/2).
BimatrixGame matching_pennies();
/// Rock-Paper-Scissors: zero-sum, unique mixed NE uniform(3).
BimatrixGame rock_paper_scissors();
/// Chicken / Hawk-Dove: 2 pure + 1 mixed NE.
BimatrixGame chicken();
/// Stag Hunt: 2 pure + 1 mixed NE.
BimatrixGame stag_hunt();
/// Pure coordination of size n with distinct diagonal payoffs (n, n-1, ..., 1).
BimatrixGame coordination(std::size_t n);

/// The three paper instances with their Sec. 4.2 parameters.
std::vector<BenchmarkInstance> paper_benchmarks();

}  // namespace cnash::game
