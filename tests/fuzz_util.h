// The oracle stack of the mutation fuzzer, shared between the fuzz driver
// (mutation_fuzz_test, ctest label "fuzz") and the committed-corpus replay
// (mutation_corpus_test, tier-1).
//
// For one mutant query, CheckMutant runs:
//   * every applicable planning strategy — the exhaustive generators
//     (kDphyp, kEaAll, kEaPrune) on queries small enough to enumerate,
//     always the large-query strategies (kGoo, kIdp) and the adaptive
//     facade — and validates every produced plan structurally
//     (plangen/plan_validator.h);
//   * the seeded-bound oracle: the facade's plan, planned under GOO's
//     cost bound, encodes to the same bytes as the unseeded reference
//     (raw EA-Prune, or the kIdp/kGoo race's winner);
//   * the exec-backed equivalence oracle: each plan is executed on a tiny
//     generated database and must reproduce the canonical evaluation's
//     rows bit-identically (bag semantics);
//   * the cache-warm path: planning the mutant again through a shared
//     PlanCache must hit, and the served plan must be cost-identical to a
//     fresh plan and (when executed) row-identical to the canonical
//     evaluation — a near-duplicate mutant cross-serving another mutant's
//     plan fails one of the two;
//   * the serde oracle: the adaptive plan must round-trip through the
//     binary encoding (plangen/plan_serde.h) — decode, re-validate,
//     explain-bit-identity, re-encode byte-identity.
//
// Deliberately ABSENT: cross-strategy cost comparisons. Mutated
// selectivities and cardinalities violate the statistics-consistency
// precondition of dominance pruning's optimality proof (DESIGN.md §5), so
// "heuristic beats the exhaustive optimum" is *expected* on mutated stats
// and would drown real divergences in noise. Structural validity and
// result rows are invariant under statistics, so those oracles stay sound.

#ifndef EADP_TESTS_FUZZ_UTIL_H_
#define EADP_TESTS_FUZZ_UTIL_H_

#include <string>
#include <vector>

#include "common/strings.h"
#include "exec/plan_executor.h"
#include "plangen/plan_cache.h"
#include "plangen/plan_explain.h"
#include "plangen/plan_serde.h"
#include "plangen/plan_validator.h"
#include "plangen/plangen.h"
#include "queries/data_generator.h"
#include "queries/mutation.h"
#include "tests/test_util.h"

namespace eadp {

struct FuzzOracleOptions {
  /// Exhaustive strategies only run at or below this relation count
  /// (kEaAll is exponential; mutants never add relations, so seeds bound
  /// this). kGoo/kIdp/adaptive run regardless.
  int max_exhaustive_relations = 8;
  /// The exec oracle only runs at or below this relation count: tables
  /// have <= 10 rows, but a 10-relation cross-product-ish mutant can
  /// still blow up the interpreter.
  int max_exec_relations = 7;
  /// Seed for the generated database.
  uint64_t data_seed = 7;
  /// When set, the cache-warm path check runs against this (shared,
  /// long-lived) cache.
  PlanCache* cache = nullptr;
};

/// The result of one oracle sweep. `failures` empty = mutant survived.
struct FuzzOracleReport {
  std::vector<std::string> failures;
  int strategies_run = 0;
  bool executed = false;   ///< exec oracle ran
  bool cache_hit = false;  ///< warm probe served from cache
};

/// Runs the full oracle stack over one (canonicalized) query.
inline FuzzOracleReport CheckMutant(const Query& query,
                                    const FuzzOracleOptions& oracle) {
  FuzzOracleReport report;
  int n = query.NumRelations();
  bool run_exec = n <= oracle.max_exec_relations;
  Database db;
  if (run_exec) {
    db = GenerateDatabase(query, oracle.data_seed);
    report.executed = true;
  }

  std::vector<Algorithm> algorithms = {Algorithm::kGoo, Algorithm::kIdp};
  if (n <= oracle.max_exhaustive_relations) {
    algorithms.insert(algorithms.begin(),
                      {Algorithm::kDphyp, Algorithm::kEaAll,
                       Algorithm::kEaPrune});
  }

  auto check_plan = [&](const OptimizeResult& r, const char* label) {
    if (r.plan == nullptr) return;  // satisfiability handled by the caller
    for (const std::string& v : ValidatePlan(r.plan, query)) {
      report.failures.push_back(StrFormat("%s: validator: %s", label,
                                          v.c_str()));
    }
    if (run_exec) {
      std::string message;
      if (!PlanMatchesCanonical(r.plan, query, db, &message)) {
        report.failures.push_back(
            StrFormat("%s: exec oracle mismatch:\n%s", label,
                      message.c_str()));
      }
    }
  };

  // kDphyp is the reorder-only baseline: a structurally valid query it
  // cannot plan is itself a finding.
  bool baseline_planned = false;
  OptimizeResult prune, goo, idp;  // the unseeded facade's pieces
  for (Algorithm a : algorithms) {
    OptimizerOptions opts;
    opts.algorithm = a;
    OptimizeResult r = Optimize(query, opts);
    ++report.strategies_run;
    if (a == Algorithm::kDphyp) baseline_planned = r.plan != nullptr;
    if (r.plan == nullptr && a == Algorithm::kDphyp) {
      report.failures.push_back("kDphyp: no plan for a valid query");
    }
    check_plan(r, AlgorithmName(a));
    if (a == Algorithm::kEaPrune) prune = r;
    if (a == Algorithm::kGoo) goo = r;
    if (a == Algorithm::kIdp) idp = r;
  }
  (void)baseline_planned;

  OptimizerOptions adaptive;
  OptimizeResult fresh = OptimizeAdaptive(query, adaptive);
  ++report.strategies_run;
  if (fresh.plan == nullptr) {
    report.failures.push_back("adaptive: no plan for a valid query");
  }
  check_plan(fresh, "adaptive");

  // Seeded-bound oracle (DESIGN.md §14): the facade bounds its exact
  // enumeration and kIdp by GOO's cost, which must never change a byte of
  // the plan. The unseeded reference is raw unbounded EA-Prune below the
  // exact threshold, and PickAdaptiveWinner(kIdp, kGoo) above it.
  OptimizeResult unseeded;
  if (n > adaptive.adaptive_exact_relations) {
    unseeded = PickAdaptiveWinner(idp, goo);
  } else if (n > oracle.max_exhaustive_relations) {
    unseeded = Optimize(query, adaptive);  // kEaPrune, not run above
  } else {
    unseeded = prune;
  }
  if ((fresh.plan == nullptr) != (unseeded.plan == nullptr) ||
      (fresh.plan != nullptr &&
       PlanOnlyBytes(fresh) != PlanOnlyBytes(unseeded))) {
    report.failures.push_back(StrFormat(
        "seeded bound: facade plan (cost %.17g) differs from the unseeded "
        "reference (cost %.17g)",
        fresh.plan != nullptr ? fresh.plan->cost : -1.0,
        unseeded.plan != nullptr ? unseeded.plan->cost : -1.0));
  }

  // Serde oracle (plangen/plan_serde.h): the surviving mutant's plan must
  // round-trip — decode cleanly, re-validate, stay explain-bit-identical
  // (cost/cardinality doubles travel by bit pattern) and re-encode to the
  // same bytes. Mutants reach plan shapes the curated corpus never
  // produces, which is exactly where an encoding hole would hide.
  if (fresh.plan != nullptr) {
    std::string blob = EncodePlan(fresh);
    OptimizeResult revived;
    std::string serde_error;
    if (!DecodePlan(blob, &revived, &serde_error)) {
      report.failures.push_back("serde: decode failed: " + serde_error);
    } else if (revived.plan == nullptr) {
      report.failures.push_back("serde: decode dropped the plan");
    } else {
      for (const std::string& v : ValidatePlan(revived.plan, query)) {
        report.failures.push_back("serde: revived plan validator: " + v);
      }
      if (ExplainToJson(revived, query.catalog()) !=
          ExplainToJson(fresh, query.catalog())) {
        report.failures.push_back(
            "serde: revived explain differs from original");
      }
      if (EncodePlan(revived) != blob) {
        report.failures.push_back("serde: re-encode not byte-identical");
      }
    }
  }

  if (oracle.cache != nullptr && fresh.plan != nullptr) {
    OptimizerOptions cached = adaptive;
    cached.plan_cache = oracle.cache;
    // First pass populates (or hits a structurally identical earlier
    // mutant — fine: fingerprint equality is structural equality); the
    // second pass must hit.
    OptimizeAdaptive(query, cached);
    OptimizeResult warm = OptimizeAdaptive(query, cached);
    if (!warm.stats.cache_hit) {
      report.failures.push_back("cache: warm probe missed");
    } else {
      report.cache_hit = true;
      // Cross-serving detection: a hit must be cost-identical to the
      // fresh plan (optimization is deterministic, so any cost delta
      // means the cache served a *different* query's plan) ...
      if (warm.plan == nullptr) {
        report.failures.push_back("cache: hit served a null plan");
      } else if (warm.plan->cost != fresh.plan->cost) {
        report.failures.push_back(
            StrFormat("cache: served plan cost %.17g != fresh cost %.17g "
                      "(cross-served entry?)",
                      warm.plan->cost, fresh.plan->cost));
      } else if (run_exec) {
        // ... and row-identical to the canonical evaluation.
        std::string message;
        if (!PlanMatchesCanonical(warm.plan, query, db, &message)) {
          report.failures.push_back(
              "cache: served plan rows diverge from canonical:\n" + message);
        }
      }
    }
  }
  // Stats-drift oracle (DESIGN.md §14): perturb the catalog *after*
  // planning — same structural fingerprint, moved stats overlay — and
  // probe the warm cache again. An unbounded drift tolerance must serve
  // the stale plan via re-cost (replan_avoided), and since result rows
  // are invariant under statistics the served plan must still reproduce
  // the canonical rows; a zero tolerance must re-plan inline, and the
  // re-plan must encode to the same plan bytes as a fresh uncached
  // optimization under the drifted statistics (the re-cost/tolerance path
  // never leaks a stale plan into a strict probe, and the re-plan's cost
  // bound never changes a tie-break).
  if (oracle.cache != nullptr && fresh.plan != nullptr &&
      query.root() != nullptr) {
    QuerySpec drifted_spec = QuerySpec::FromQuery(query);
    Rng drift_rng(oracle.data_seed * 0x9e3779b97f4a7c15ull + 0x5eed);
    if (ApplyStatsDrift(&drifted_spec.catalog, &drift_rng)) {
      Query drifted = drifted_spec.ToQuery();
      OptimizerOptions tolerant = adaptive;
      tolerant.plan_cache = oracle.cache;
      tolerant.drift_tolerance = 1e18;
      OptimizeResult served = OptimizeAdaptive(drifted, tolerant);
      if (served.plan == nullptr) {
        report.failures.push_back("drift: tolerant probe served no plan");
      } else {
        if (!served.stats.cache_hit || !served.stats.replan_avoided) {
          report.failures.push_back(
              "drift: tolerant probe did not re-cost-and-serve "
              "(expected a drifted hit with replan_avoided)");
        }
        if (run_exec) {
          std::string message;
          if (!PlanMatchesCanonical(served.plan, drifted, db, &message)) {
            report.failures.push_back(
                "drift: re-cost-served plan rows diverge from canonical:\n" +
                message);
          }
        }
      }
      OptimizerOptions strict = adaptive;
      strict.plan_cache = oracle.cache;
      OptimizeResult replanned = OptimizeAdaptive(drifted, strict);
      OptimizeResult reference = OptimizeAdaptive(drifted, adaptive);
      if (replanned.plan == nullptr || reference.plan == nullptr) {
        report.failures.push_back("drift: no plan under drifted stats");
      } else {
        if (replanned.stats.replan_avoided) {
          report.failures.push_back(
              "drift: zero-tolerance probe avoided the re-plan");
        }
        if (PlanOnlyBytes(replanned) != PlanOnlyBytes(reference)) {
          report.failures.push_back(StrFormat(
              "drift: re-planned plan (cost %.17g) differs from the fresh "
              "plan (cost %.17g) under drifted stats (stale plan leaked "
              "through, or the bounded re-plan changed a tie-break?)",
              replanned.plan->cost, reference.plan->cost));
        }
      }
    }
  }
  return report;
}

/// Formats a replayable reproducer line for a failing (seed, chain) pair —
/// the exact corpus-format line scripts/fuzz.sh and the corpus replay
/// consume.
inline std::string FormatReproducer(const CorpusEntry& entry,
                                    const std::vector<std::string>& failures) {
  std::string out = "# " + std::to_string(failures.size()) + " failure(s):\n";
  for (const std::string& f : failures) {
    std::string line = f.substr(0, 200);
    for (char& c : line) {
      if (c == '\n') c = ' ';
    }
    out += "#   " + line + "\n";
  }
  out += FormatCorpusEntry(entry) + "\n";
  return out;
}

}  // namespace eadp

#endif  // EADP_TESTS_FUZZ_UTIL_H_
