// T1 · Corollary 1.4 + §1 (BEB lower bound [23]).
//
// Batch arrivals, no jamming: overall throughput N/S as N grows, for
// LOW-SENSING BACKOFF vs. binary exponential backoff vs. the full-sensing
// multiplicative-weights baseline vs. genie-aided slotted ALOHA.
//
// Shape targets:
//   * LSB throughput is flat in N (Θ(1));
//   * BEB decays ~1/ln N (regress throughput against 1/ln N);
//   * MW is flat (short feedback loop also gives Θ(1); it pays in energy,
//     see T2);
//   * LSB >= BEB for all but the smallest N.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "harness/suite.hpp"
#include "harness/sweep.hpp"
#include "protocols/fixed_probability.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

namespace {

Scenario batch_scenario(const std::string& proto, std::uint64_t n) {
  Scenario s;
  s.name = proto + "/n=" + std::to_string(n);
  s.protocol = [proto, n]() -> std::unique_ptr<ProtocolFactory> {
    if (proto == "aloha") {
      // p = 1/N exactly; an "aloha:<p>" name rounds it (to 0 from N = 2^21).
      return std::make_unique<FixedProbabilityFactory>(1.0 / static_cast<double>(n));
    }
    return make_protocol(proto);
  };
  s.arrivals = [n](std::uint64_t) { return std::make_unique<BatchArrivals>(n); };
  // BEB at large N is slow to drain; bound the run but keep it long
  // enough that truncation only affects the biggest BEB points.
  s.config.max_active_slots = 80ULL * n + 200000ULL;
  return s;
}

void body(BenchContext& ctx) {
  const auto lo = static_cast<unsigned>(ctx.u64("lo_exp"));
  const auto hi = static_cast<unsigned>(ctx.u64("hi_exp"));

  const char* kProtocols[] = {"low-sensing", "binary-exponential", "mw-full-sensing", "aloha"};
  Table table({"N", "lsb", "beb", "mw", "aloha-genie"});

  std::vector<double> ns, lsb_tp, beb_tp, inv_ln;
  for (std::uint64_t n : pow2_sweep(lo, hi)) {
    std::vector<std::string> row{std::to_string(n)};
    for (const char* proto : kProtocols) {
      // MW listens EVERY slot, so simulating it costs Θ(N²) work per run;
      // its flatness is established on the lower half of the sweep.
      if (std::string(proto) == "mw-full-sensing" && n > 4096) {
        row.push_back("-");
        continue;
      }
      const int r = std::string(proto) == "binary-exponential" && n > 8192
                        ? std::max(ctx.reps() / 2, 2)
                        : ctx.reps();
      const Replicates result =
          ctx.run(batch_scenario(proto, n), {{"proto", proto}, {"n", std::to_string(n)}}, r);
      const double tp = result.throughput().median;
      row.push_back(Table::num(tp, 3));
      if (std::string(proto) == "low-sensing") {
        ns.push_back(static_cast<double>(n));
        lsb_tp.push_back(tp);
        inv_ln.push_back(1.0 / std::log(static_cast<double>(n)));
      }
      if (std::string(proto) == "binary-exponential") beb_tp.push_back(tp);
    }
    table.add_row(row);
  }

  ctx.table(table, "(median overall throughput N/S across seeds)");

  // Shape checks.
  const double lsb_first = lsb_tp.front(), lsb_last = lsb_tp.back();
  ctx.check("LSB throughput flat (last >= 0.6 * first)", lsb_last >= 0.6 * lsb_first,
            "first=" + Table::num(lsb_first, 3) + " last=" + Table::num(lsb_last, 3));

  const double floor = *std::min_element(lsb_tp.begin(), lsb_tp.end());
  ctx.check("LSB throughput floor > 0.15", floor > 0.15, "floor=" + Table::num(floor, 3));

  const double beb_drop = beb_tp.back() / beb_tp.front();
  ctx.check("BEB throughput decays (last < 0.75 * first)", beb_drop < 0.75,
            "ratio=" + Table::num(beb_drop, 3));

  // BEB ~ c / ln N: correlation of throughput with 1/ln N should be strong.
  const LinearFit fit = fit_linear(inv_ln, beb_tp);
  ctx.check("BEB ~ 1/ln N (R^2 > 0.7 vs 1/ln N)", fit.r2 > 0.7, "R^2=" + Table::num(fit.r2, 3));

  bool lsb_wins_late = true;
  for (std::size_t i = ns.size() / 2; i < ns.size(); ++i) {
    lsb_wins_late &= lsb_tp[i] > beb_tp[i];
  }
  ctx.check("LSB beats BEB at scale (top half of sweep)", lsb_wins_late);
}

}  // namespace

int main(int argc, char** argv) {
  BenchDef def;
  def.id = "T1";
  def.paper_anchor = "Cor 1.4 + [23]";
  def.claim = "LSB: Theta(1) batch throughput; BEB: O(1/ln N); crossover early";
  def.params = {BenchParam::u64("lo_exp", 6, "smallest batch size as a power of two"),
                BenchParam::u64("hi_exp", 15, "largest batch size as a power of two")};
  def.default_reps = 5;
  def.default_seed = 1;
  def.body = body;
  return run_bench_suite(def, argc, argv);
}
