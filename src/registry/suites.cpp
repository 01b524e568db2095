#include "registry/suites.h"

#include <utility>

namespace smq {

namespace {

SuiteRun run_of(std::string scheduler,
                std::initializer_list<std::pair<const char*, std::string>>
                    kvs = {},
                std::string label = "") {
  return {std::move(scheduler), params_of(kvs), std::move(label)};
}

/// An mq-opt row at (B, p) insert / (B, p) delete. All four knobs are
/// row params, so no CLI tunable moves the row off its combo.
ParamMap mq_opt_params(const std::string& insert_batch,
                       const std::string& p_insert,
                       const std::string& delete_batch,
                       const std::string& p_delete) {
  return params_of({{"insert-batch", insert_batch},
                    {"p-insert", p_insert},
                    {"delete-batch", delete_batch},
                    {"p-delete", p_delete}});
}

/// The paper's per-thread-count baseline, first row of every speedup
/// figure: classic MQ with C = 4.
SuiteRun mq_baseline() {
  return run_of("mq", {{"c", "4"}}, "mq-c4 (baseline)");
}

/// One row of an SMQ ablation grid, `scheduler` at p_steal = 1/`denom`,
/// labelled as the figure names it ("smq-p4/steal-size=1").
SuiteRun smq_ablation_run(const char* scheduler, const char* label_prefix,
                          int denom, const char* steal_size) {
  const std::string d = std::to_string(denom);
  return run_of(scheduler, {{"p-steal", "1/" + d}, {"steal-size", steal_size}},
                label_prefix + d + "/steal-size=" + steal_size);
}

/// `params` at a NUMA-table point: two virtual nodes at remote weight K.
ParamMap numa_point(const std::string& k, ParamMap params = {}) {
  params.set("numa", "2");
  params.set("numa-k", k);
  return params;
}

std::vector<SuiteDef> build_suites() {
  std::vector<SuiteDef> defs;
  // The remote-weight divisors K of the NUMA tables (16-27).
  const std::vector<std::string> numa_ks{"1",  "2",  "4",   "8",  "16",
                                         "32", "64", "128", "256"};

  // Figure 1 (+ Figures 17-18, Tables 12-13): SMQ(heap) ablation,
  // p_steal x steal-buffer size, vs classic MQ C=4.
  {
    SuiteDef d;
    d.name = "fig1";
    d.figure = "Figure 1 / Figures 17-18 / Tables 12-13";
    d.description = "SMQ (heap) ablation: p_steal x steal-buffer size";
    d.threads = {4};
    d.runs.push_back(mq_baseline());
    for (const int denom : {2, 4, 8, 16, 32, 64}) {
      for (const char* size : {"1", "4", "16", "64"}) {
        d.runs.push_back(smq_ablation_run("smq", "smq-p", denom, size));
      }
    }
    defs.push_back(std::move(d));
  }

  // Figures 3-6 (Appendix B): OBIM and PMOD delta x CHUNK_SIZE tuning.
  {
    SuiteDef d;
    d.name = "fig3_6";
    d.figure = "Figures 3-6";
    d.description = "OBIM/PMOD tuning: delta shift x chunk size";
    d.threads = {4};
    d.runs.push_back(mq_baseline());
    for (const char* scheduler : {"obim", "pmod"}) {
      for (const unsigned shift : {0u, 2u, 4u, 8u, 12u, 16u}) {
        const std::string s = std::to_string(shift);
        for (const char* chunk : {"16", "64", "256"}) {
          d.runs.push_back(
              run_of(scheduler, {{"delta-shift", s}, {"chunk-size", chunk}},
                     std::string(scheduler) + "-d" + s +
                         "/chunk-size=" + chunk));
        }
      }
    }
    defs.push_back(std::move(d));
  }

  // Figures 7-14 / Tables 4-11 (Appendix C): the classic-MQ optimization
  // sub-sweeps along the figures' diagonal — temporal-locality stickiness
  // (1, 1/D) on both sides, labelled mq-tl-p<D> (D = 1 is the classic
  // mq), and task-batching buffer size (B, 1) on both sides, both on
  // mq-opt.
  {
    SuiteDef d;
    d.name = "fig7_14";
    d.figure = "Figures 7-14 / Tables 4-11";
    d.description = "MQ optimization sub-sweeps: stickiness and buffer size";
    d.threads = {4};
    d.runs.push_back(mq_baseline());
    d.runs.push_back(run_of("mq", {}, "mq-tl-p1"));
    for (const int denom : {4, 16, 64, 256, 1024}) {
      const std::string p = "1/" + std::to_string(denom);
      d.runs.push_back({"mq-opt", mq_opt_params("1", p, "1", p),
                        "mq-tl-p" + std::to_string(denom)});
    }
    for (const char* batch : {"1", "4", "16", "64", "256", "1024"}) {
      d.runs.push_back({"mq-opt", mq_opt_params(batch, "1", batch, "1"),
                        std::string("mq-opt/b=") + batch});
    }
    defs.push_back(std::move(d));
  }

  // Figures 15-16 (Appendix C.9): the four optimization combos
  // head-to-head at representative settings (p = 1/16, buffers of 16),
  // each mq-opt at its (B, p) insert / (B, p) delete: TL/TL at (1, 1/16)
  // on both sides, B/B at mq-opt's defaults, B/TL at (16, 1) / (1, 1/16)
  // and TL/B at (1, 1/16) / (16, 1).
  {
    SuiteDef d;
    d.name = "fig15_16";
    d.figure = "Figures 15-16";
    d.description = "MQ optimization combos head-to-head";
    d.threads = {4};
    d.runs.push_back(mq_baseline());  // the combo with no optimization
    d.runs.push_back({"mq-opt", mq_opt_params("1", "1/16", "1", "1/16"),
                      "mq-tl-p16 (TL/TL)"});
    d.runs.push_back(run_of("mq-opt", {}, "mq-opt (B/B)"));
    d.runs.push_back({"mq-opt", mq_opt_params("16", "1", "1", "1/16"),
                      "mq-opt-full (B/TL)"});
    d.runs.push_back(
        {"mq-opt", mq_opt_params("1", "1/16", "16", "1"), "mq-opt (TL/B)"});
    defs.push_back(std::move(d));
  }

  // Figures 19-20 / Tables 14-15 (Appendix D): the SMQ skip-list
  // ablation, with the d-ary-heap variant at the same grid so the gap
  // is visible.
  {
    SuiteDef d;
    d.name = "fig19_20";
    d.figure = "Figures 19-20 / Tables 14-15";
    d.description = "SMQ (skip list) ablation, heap variant paired";
    d.threads = {4};
    d.runs.push_back(mq_baseline());
    for (const auto& [scheduler, label_prefix] :
         {std::pair{"smq-skiplist", "smq-sl-p"}, std::pair{"smq", "smq-p"}}) {
      for (const int denom : {2, 4, 8, 16, 32}) {
        for (const char* size : {"1", "8", "64"}) {
          d.runs.push_back(
              smq_ablation_run(scheduler, label_prefix, denom, size));
        }
      }
    }
    defs.push_back(std::move(d));
  }

  // Tables 2-3: classic MQ speedup vs queue multiplier C.
  {
    SuiteDef d;
    d.name = "table2_3";
    d.figure = "Tables 2-3";
    d.description = "classic MQ C-sweep vs the sequential exact PQ";
    d.threads = {4};
    for (const char* c : {"1", "2", "4", "8", "16"}) {
      d.runs.push_back(run_of("mq", {{"c", c}}, std::string("mq-c") + c));
    }
    defs.push_back(std::move(d));
  }

  // Tables 16-23 (Appendix E.1-E.4): NUMA weight K ablation for the
  // four optimized-MQ combos on two virtual nodes. K = 1 is the
  // non-NUMA algorithm; the `remote` column is the measured remote
  // fraction of the sampled queue touches.
  {
    SuiteDef d;
    d.name = "table16_23";
    d.figure = "Tables 16-23";
    d.description = "NUMA weight K ablation: optimized MQ combos";
    d.threads = {4};
    d.runs.push_back(mq_baseline());
    // The four combos spell their (B, p) per side on mq-opt at p = 1/16
    // and buffers of 16.
    for (const auto& [label, combo] :
         {std::pair{"TL/TL", mq_opt_params("1", "1/16", "1", "1/16")},
          std::pair{"TL/B", mq_opt_params("1", "1/16", "16", "1")},
          std::pair{"B/TL", mq_opt_params("16", "1", "1", "1/16")},
          std::pair{"B/B", mq_opt_params("16", "1", "16", "1")}}) {
      for (const std::string& k : numa_ks) {
        d.runs.push_back(
            {"mq-opt", numa_point(k, combo), std::string(label) + " K=" + k});
      }
    }
    defs.push_back(std::move(d));
  }

  // Tables 24-27 (Appendix E.5-E.6): the same K ablation for SMQ with
  // d-ary-heap and skip-list local queues. Only steal victims are
  // sampled, so SMQ should be largely insensitive to K.
  {
    SuiteDef d;
    d.name = "table24_27";
    d.figure = "Tables 24-27";
    d.description = "NUMA weight K ablation: SMQ heap and skip list";
    d.threads = {4};
    d.runs.push_back(mq_baseline());
    for (const char* scheduler : {"smq", "smq-skiplist"}) {
      for (const std::string& k : numa_ks) {
        d.runs.push_back({scheduler, numa_point(k), ""});
      }
    }
    defs.push_back(std::move(d));
  }

  // Shared graph default: the perf-gate graph, small enough for CI yet
  // contended enough to separate the schedulers; --graph/--vertices
  // override it, and real DIMACS inputs reproduce the paper's numbers.
  for (SuiteDef& d : defs) {
    d.graph_params = params_of({{"vertices", "20000"}});
  }
  return defs;
}

}  // namespace

const std::vector<SuiteDef>& suites() {
  static const std::vector<SuiteDef>* defs =
      new std::vector<SuiteDef>(build_suites());
  return *defs;
}

const SuiteDef* find_suite(std::string_view name) {
  for (const SuiteDef& d : suites()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  names.reserve(suites().size());
  for (const SuiteDef& d : suites()) names.push_back(d.name);
  return names;
}

std::string suite_run_label(const SuiteRun& run) {
  return run.label.empty() ? config_label(run.scheduler, run.params)
                           : run.label;
}

std::string unknown_suite_message(std::string_view name) {
  std::string msg = "unknown suite: " + std::string(name) + " (expected ";
  const std::vector<std::string> names = suite_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    msg += (i == 0 ? "" : ", ") + names[i];
  }
  msg += ")";
  return msg;
}

}  // namespace smq
