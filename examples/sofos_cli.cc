/// Interactive terminal twin of the SOFOS demo GUI (paper Figure 3):
///
///   ① full lattice view      → `lattice`, `inspect <mask>`
///   ② cost function selector → `select <model> <k>`, `user <mask>...`
///   ③ materialized lattice   → `materialize`, `drop`, `status`
///   ④ performance analyzer   → `workload <n>`, `run`, `challenge <k>`
///
/// Reads commands from stdin (scriptable: `echo "..." | sofos_cli`).
///
///   ./sofos_cli [dataset] [scale] [num_threads]
///
/// `scale` is a named tier (tiny|demo|full) or an explicit triple target
/// ("100k", "1m", up to 200m); see also the `load`, `gen` and `layout`
/// commands for re-loading at a different scale or switching the store to
/// the compact (CSR + front-coded dictionary) layout at runtime.
///
/// `num_threads` sizes the engine's pool for profiling, selection and the
/// batched workload runner (0 = hardware_concurrency, 1 = serial legacy
/// behavior); it can also be changed at runtime with `threads <n>`.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/metrics_registry.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/table_printer.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/training.h"
#include "datagen/registry.h"
#include "server/client.h"
#include "server/server.h"
#include "sparql/query_engine.h"
#include "workload/generator.h"

namespace {

using namespace sofos;

class Cli {
 public:
  void SetNumThreads(unsigned num_threads) {
    engine_.SetNumThreads(num_threads);
    std::printf("using %u thread%s\n", engine_.num_threads(),
                engine_.num_threads() == 1 ? "" : "s");
  }

  Status LoadDataset(const std::string& name,
                     const datagen::ScaleSpec& scale) {
    TripleStore store;
    // Partition before generation finalizes, so LoadStore's repartition
    // no-ops instead of rebuilding every index a second time.
    store.SetShardCount(engine_.ResolvedShardCount());
    WallTimer gen_timer;
    SOFOS_ASSIGN_OR_RETURN(datagen::DatasetSpec spec,
                           datagen::GenerateByName(name, scale, 42, &store));
    const double gen_seconds = gen_timer.ElapsedSeconds();
    SOFOS_ASSIGN_OR_RETURN(
        core::Facet facet,
        core::Facet::FromSparql(spec.facet_sparql, spec.name, spec.dim_labels));
    SOFOS_RETURN_IF_ERROR(engine_.LoadStore(std::move(store)));
    SOFOS_RETURN_IF_ERROR(engine_.SetFacet(std::move(facet)));
    SOFOS_RETURN_IF_ERROR(engine_.Profile().status());
    spec_ = spec;
    std::printf(
        "loaded %s (%s): %llu triples in %.2fs (%.1f bytes/triple, "
        "%s layout), facet %s with %zu dims\n",
        spec.name.c_str(), spec.description.c_str(),
        static_cast<unsigned long long>(engine_.CurrentTriples()), gen_seconds,
        BytesPerTriple(), engine_.store()->compact_layout() ? "compact"
                                                            : "sorted",
        engine_.facet().name().c_str(), engine_.facet().num_dims());
    return Status::OK();
  }

  void Repl() {
    std::string line;
    std::printf("sofos> ");
    std::fflush(stdout);
    while (std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
      std::printf("sofos> ");
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  /// True when any dispatched command failed — the process exit code, so
  /// `serve` scripting and CI smoke tests can detect errors (historically
  /// failures printed and exited 0).
  bool had_error() const { return had_error_; }

 private:
  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) return true;
    Status status = Status::OK();
    if (cmd == "quit" || cmd == "exit") return false;
    // While serving, the server owns the engine (single-driver contract):
    // only server management, client requests, help, and the thread-safe
    // observability reads (registry snapshot / Prometheus dump) stay
    // available.
    if (server_ != nullptr && cmd != "serve" && cmd != "client" &&
        cmd != "help" && cmd != "stats" && cmd != "metrics" &&
        cmd != "history" && cmd != "slow" && cmd != "record") {
      std::printf(
          "engine is busy serving on port %u: use `client %u <request>`, or "
          "`serve stop` first\n",
          server_->port(), server_->port());
      had_error_ = true;
      return true;
    }
    if (cmd == "help") {
      Help();
    } else if (cmd == "lattice") {
      std::printf("%s", engine_.lattice().Render(engine_.MaterializedMasks()).c_str());
    } else if (cmd == "inspect") {
      uint32_t mask = 0;
      in >> mask;
      status = Inspect(mask);
    } else if (cmd == "models") {
      std::printf("random triples aggvalues nodes learned user\n");
    } else if (cmd == "select") {
      std::string model;
      size_t k = 3;
      in >> model >> k;
      status = Select(model, k);
    } else if (cmd == "user") {
      std::vector<uint32_t> masks;
      uint32_t mask;
      while (in >> mask) masks.push_back(mask);
      status = MaterializeUser(masks);
    } else if (cmd == "materialize") {
      status = Materialize();
    } else if (cmd == "drop") {
      status = engine_.DropMaterializedViews();
    } else if (cmd == "status") {
      PrintStatus();
    } else if (cmd == "workload") {
      int n = 20;
      in >> n;
      status = MakeWorkload(n);
    } else if (cmd == "run") {
      status = RunWorkload();
    } else if (cmd == "train") {
      status = Train();
    } else if (cmd == "challenge") {
      size_t k = 2;
      in >> k;
      status = Challenge(k);
    } else if (cmd == "update") {
      // Both arguments are optional; a failed extraction must keep the
      // default rather than zeroing the target.
      int batches = 1;
      double fraction = 0.01;
      int n;
      double f;
      if (in >> n) batches = n;
      if (in >> f) fraction = f;
      status = Update(batches, fraction);
    } else if (cmd == "staleness") {
      std::printf("%s\n", engine_.staleness_monitor().Summary().c_str());
    } else if (cmd == "sparql") {
      std::string query;
      std::getline(in, query);
      status = RunSparql(query);
    } else if (cmd == "explain") {
      std::string query;
      std::getline(in, query);
      status = Explain(query);
    } else if (cmd == "analyze") {
      std::string query;
      std::getline(in, query);
      status = Analyze(query);
    } else if (cmd == "trace") {
      std::string query;
      std::getline(in, query);
      status = Trace(query);
    } else if (cmd == "stats") {
      std::string mode;
      in >> mode;
      if (mode.empty()) {
        std::printf("%s\n", engine_.metrics()->ToJson().c_str());
      } else if (mode == "pretty") {
        PrintStatsPretty();
      } else {
        std::printf("usage: stats [pretty]\n");
        had_error_ = true;
      }
    } else if (cmd == "metrics") {
      std::printf("%s", engine_.metrics()->PrometheusText().c_str());
    } else if (cmd == "history") {
      double window = 60.0;
      double w;
      if (in >> w) window = w;
      status = History(window);
    } else if (cmd == "slow") {
      status = Slow();
    } else if (cmd == "record") {
      std::string sub;
      in >> sub;
      status = Record(sub);
    } else if (cmd == "serve") {
      std::string arg;
      in >> arg;
      status = Serve(arg);
    } else if (cmd == "client") {
      long port = 0;
      std::string request;
      if (!(in >> port) || port <= 0 || port > 65535) {
        status = Status::InvalidArgument("usage: client <port> <request line>");
      } else {
        std::getline(in, request);
        status = Client(static_cast<uint16_t>(port),
                        std::string(StrTrim(request)));
      }
    } else if (cmd == "threads") {
      long n = -1;
      if (!(in >> n) || n < 0 ||
          n > static_cast<long>(ThreadPool::kMaxThreads)) {
        std::printf("usage: threads <n> with 0 <= n <= %zu (0=auto, 1=serial)\n",
                    ThreadPool::kMaxThreads);
      } else {
        SetNumThreads(static_cast<unsigned>(n));
      }
    } else if (cmd == "load") {
      std::string name, scale_text;
      in >> name >> scale_text;
      if (name.empty()) {
        std::printf("usage: load <dataset> [tiny|demo|full|<N>[k|m]]\n");
      } else {
        datagen::ScaleSpec scale;
        auto parsed = datagen::ParseScaleSpec(
            scale_text.empty() ? "demo" : scale_text);
        if (parsed.ok()) {
          scale = parsed.value();
          status = LoadDataset(name, scale);
        } else {
          status = parsed.status();
        }
      }
    } else if (cmd == "gen") {
      std::string name, scale_text;
      in >> name >> scale_text;
      if (name.empty()) {
        std::printf("usage: gen <dataset> [tiny|demo|full|<N>[k|m]]\n");
      } else {
        status = Generate(name, scale_text.empty() ? "demo" : scale_text);
      }
    } else if (cmd == "layout") {
      std::string name;
      if (!(in >> name)) {
        std::printf("store layout: %s (knob %s; auto switches to compact "
                    "at %llu triples)\n",
                    engine_.store()->compact_layout() ? "compact" : "sorted",
                    core::StoreLayoutName(engine_.store_layout()).c_str(),
                    static_cast<unsigned long long>(
                        core::SofosEngine::kCompactAutoTriples));
      } else {
        auto parsed = core::ParseStoreLayout(name);
        if (parsed.ok()) {
          engine_.SetStoreLayout(parsed.value());
          std::printf("store layout: %s (%.1f bytes/triple)\n",
                      engine_.store()->compact_layout() ? "compact"
                                                        : "sorted",
                      BytesPerTriple());
        } else {
          status = parsed.status();
        }
      }
    } else if (cmd == "shards") {
      long n = -1;
      if (!(in >> n)) {
        std::printf("store shards: %zu (knob %u, 0=auto)\n",
                    engine_.store()->shard_count(), engine_.shard_count());
      } else if (n < 0 || n > 256) {
        std::printf("usage: shards [n] with 0 <= n <= 256 (0=auto from pool)\n");
      } else {
        engine_.SetShardCount(static_cast<unsigned>(n));
        std::printf("store shards: %zu per index family (COW snapshots "
                    "publish O(changed shards))\n",
                    engine_.store()->shard_count());
      }
    } else {
      std::printf("unknown command '%s' (try `help`)\n", cmd.c_str());
      had_error_ = true;
    }
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      had_error_ = true;
    }
    return true;
  }

  void Help() {
    std::printf(
        "  lattice              render the view lattice (* = materialized)\n"
        "  inspect <mask>       show a view's stats and stored rows\n"
        "  models               list cost models\n"
        "  select <model> <k>   greedy-select k views under a cost model\n"
        "  user <mask>...       pick views by hand (user-defined model)\n"
        "  materialize          materialize the pending selection\n"
        "  drop                 roll back to the base graph\n"
        "  status               storage figures and materialized views\n"
        "  workload <n>         generate n random analytical queries\n"
        "  run                  run the workload with and without views\n"
        "  update [n] [frac]    apply n random update batches (frac of |G|\n"
        "                       each) with incremental view maintenance\n"
        "  staleness            drift of the current selection vs baseline\n"
        "  train                train the learned cost model\n"
        "  challenge <k>        oracle best-k vs every cost model\n"
        "  sparql <query>       run a raw SPARQL query\n"
        "  explain <query>      show the batch plan (join algos, leaf rows)\n"
        "  analyze [query]      EXPLAIN ANALYZE: run and annotate the plan\n"
        "                       with per-operator actuals (default: root view)\n"
        "  trace [query]        run with span tracing on; prints the span\n"
        "                       tree as JSON (default: root view)\n"
        "  stats [pretty]       engine metrics registry: one JSON line, or\n"
        "                       aligned counter/gauge/latency tables\n"
        "  metrics              Prometheus text exposition of the registry\n"
        "  history [sec]        sliding-window rates and interval\n"
        "                       percentiles from the serving telemetry\n"
        "                       history (default window 60 s)\n"
        "  slow                 slow-query captures: ANALYZE + trace\n"
        "                       diagnostics for over-threshold requests\n"
        "  record [sub]         workload recorder: status|on|off|clear, or\n"
        "                       export recorded queries for `run` to replay\n"
        "  serve [port]         start the online server (0/none = ephemeral)\n"
        "  serve stop           stop the online server\n"
        "  client <port> <req>  send one protocol request (QUERY/UPDATE/\n"
        "                       EXPLAIN/ANALYZE/TRACE/STATS/METRICS/\n"
        "                       HISTORY/SLOW/QUIT) and print the response\n"
        "  load <ds> [scale]    load a dataset: scale is tiny|demo|full or\n"
        "                       a triple target like 100k, 1m (up to 200m)\n"
        "  gen <ds> [scale]     dry-run generation: triple count, timing,\n"
        "                       and bytes/triple without loading the engine\n"
        "  layout [mode]        auto|sorted|compact store layout (compact =\n"
        "                       CSR shards + front-coded dictionary)\n"
        "  threads <n>          size the thread pool (0=auto, 1=serial)\n"
        "  shards [n]           hash shards per index family (0=auto;\n"
        "                       results never change, rebuild/publish do)\n"
        "  quit\n");
  }

  Status Inspect(uint32_t mask) {
    if (mask >= engine_.lattice().size()) {
      return Status::InvalidArgument("mask out of range");
    }
    const core::LatticeProfile* profile = engine_.profile();
    const core::ViewStats& stats = profile->ForMask(mask);
    std::printf("view %s (mask %u): rows=%llu triples=%llu nodes=%llu bytes=%s\n",
                engine_.facet().MaskLabel(mask).c_str(), mask,
                static_cast<unsigned long long>(stats.result_rows),
                static_cast<unsigned long long>(stats.encoded_triples),
                static_cast<unsigned long long>(stats.encoded_nodes),
                FormatBytes(stats.encoded_bytes).c_str());
    // Show a sample of the view contents (the data the demo GUI displays
    // when a lattice node is clicked).
    sparql::QueryEngine qe(engine_.store());
    SOFOS_ASSIGN_OR_RETURN(sparql::QueryResult result,
                           qe.Execute(engine_.facet().ViewQuerySparql(mask)));
    std::printf("%s", result.ToTable(6).c_str());
    return Status::OK();
  }

  Status Select(const std::string& model_name, size_t k) {
    SOFOS_ASSIGN_OR_RETURN(core::CostModelKind kind,
                           core::ParseCostModelKind(model_name));
    // Re-selection after updates must not optimize against stale
    // statistics: re-profile first (which also re-anchors the staleness
    // baseline).
    if (engine_.staleness_monitor().drift() > 0) {
      std::printf("profile is stale (drift %.3f): re-profiling\n",
                  engine_.staleness_monitor().drift());
      SOFOS_RETURN_IF_ERROR(engine_.Profile().status());
    }
    SOFOS_ASSIGN_OR_RETURN(auto model, engine_.MakeModel(kind));
    SOFOS_ASSIGN_OR_RETURN(pending_, engine_.SelectViews(*model, k));
    std::printf("selection: %s (%.1f us)\n",
                pending_.ToString(engine_.facet()).c_str(),
                pending_.selection_micros);
    has_pending_ = true;
    return Status::OK();
  }

  Status MaterializeUser(const std::vector<uint32_t>& masks) {
    for (uint32_t mask : masks) {
      if (mask >= engine_.lattice().size()) {
        return Status::InvalidArgument("mask out of range");
      }
    }
    pending_ = core::UserSelection(masks);
    has_pending_ = true;
    return Materialize();
  }

  Status Materialize() {
    if (!has_pending_) return Status::InvalidArgument("no pending selection");
    SOFOS_ASSIGN_OR_RETURN(auto views, engine_.MaterializeSelection(pending_));
    for (const auto& view : views) {
      std::printf("materialized %s: %llu rows, %llu triples in %.1f ms\n",
                  engine_.facet().MaskLabel(view.mask).c_str(),
                  static_cast<unsigned long long>(view.rows),
                  static_cast<unsigned long long>(view.triples_added),
                  view.build_micros / 1000.0);
    }
    has_pending_ = false;
    PrintStatus();
    return Status::OK();
  }

  /// Store bytes per current triple (0 on an empty store).
  double BytesPerTriple() const {
    const uint64_t triples = engine_.CurrentTriples();
    return triples == 0 ? 0.0
                        : static_cast<double>(engine_.CurrentBytes()) /
                              static_cast<double>(triples);
  }

  /// `gen`: generation dry run — builds the dataset into a scratch store
  /// (never touching the engine) and reports size and footprint.
  Status Generate(const std::string& name, const std::string& scale_text) {
    SOFOS_ASSIGN_OR_RETURN(datagen::ScaleSpec scale,
                           datagen::ParseScaleSpec(scale_text));
    TripleStore store;
    store.SetShardCount(engine_.ResolvedShardCount());
    WallTimer timer;
    SOFOS_ASSIGN_OR_RETURN(datagen::DatasetSpec spec,
                           datagen::GenerateByName(name, scale, 42, &store));
    const double seconds = timer.ElapsedSeconds();
    const uint64_t triples = store.NumTriples();
    std::printf(
        "%s: %llu triples, %zu terms in %.2fs (%.0f triples/s), "
        "%.1f bytes/triple sorted\n",
        spec.name.c_str(), static_cast<unsigned long long>(triples),
        store.NumTerms(), seconds,
        seconds > 0 ? static_cast<double>(triples) / seconds : 0.0,
        triples == 0 ? 0.0
                     : static_cast<double>(store.MemoryBytes()) /
                           static_cast<double>(triples));
    return Status::OK();
  }

  void PrintStatus() {
    std::printf("triples: %llu (base %llu), amplification %.2fx, "
                "%.1f bytes/triple (%s layout), views:",
                static_cast<unsigned long long>(engine_.CurrentTriples()),
                static_cast<unsigned long long>(engine_.BaseTriples()),
                engine_.StorageAmplification(), BytesPerTriple(),
                engine_.store()->compact_layout() ? "compact" : "sorted");
    for (uint32_t mask : engine_.MaterializedMasks()) {
      std::printf(" %s", engine_.facet().MaskLabel(mask).c_str());
    }
    std::printf("\n");
  }

  Status MakeWorkload(int n) {
    workload::WorkloadGenerator generator(&engine_.facet(), engine_.store());
    workload::WorkloadOptions options;
    options.num_queries = n;
    options.seed = 7;
    SOFOS_ASSIGN_OR_RETURN(queries_, generator.Generate(options));
    std::printf("generated %zu queries\n", queries_.size());
    return Status::OK();
  }

  Status RunWorkload() {
    if (queries_.empty()) SOFOS_RETURN_IF_ERROR(MakeWorkload(20));
    SOFOS_ASSIGN_OR_RETURN(auto with, engine_.RunWorkload(queries_, true));
    SOFOS_ASSIGN_OR_RETURN(auto without, engine_.RunWorkload(queries_, false));
    std::printf("with views:    %s\n", with.Summary().c_str());
    std::printf("without views: %s\n", without.Summary().c_str());
    if (with.mean_micros > 0) {
      std::printf("mean speedup: %.2fx\n",
                  without.mean_micros / with.mean_micros);
    }
    return Status::OK();
  }

  Status Train() {
    core::LearnedTrainingOptions options;
    options.repetitions = 1;
    options.epochs = 200;
    SOFOS_RETURN_IF_ERROR(core::TrainLearnedModel(&engine_, options).status());
    std::printf("learned cost model trained\n");
    return Status::OK();
  }

  /// The "hands-on challenge" (demo step 5): oracle best-k by measured
  /// runtimes vs each cost model's pick.
  Status Challenge(size_t k) {
    if (queries_.empty()) SOFOS_RETURN_IF_ERROR(MakeWorkload(20));
    const size_t n = engine_.lattice().size();

    // Measured answer-cost matrix from the full lattice.
    SOFOS_RETURN_IF_ERROR(engine_.DropMaterializedViews());
    SOFOS_RETURN_IF_ERROR(
        engine_.MaterializeViews(engine_.lattice().AllMasks()).status());
    core::Rewriter rewriter(&engine_.facet());
    sparql::QueryEngine qe(engine_.store());
    std::vector<std::vector<double>> cost(n, std::vector<double>(n + 1, 1e18));
    for (uint32_t w = 0; w < n; ++w) {
      core::QuerySignature sig;
      sig.group_mask = w;
      for (uint32_t v = 0; v < n; ++v) {
        if (!core::Lattice::CanAnswer(v, w)) continue;
        SOFOS_ASSIGN_OR_RETURN(std::string rewritten,
                               rewriter.RewriteToView(sig, v));
        WallTimer timer;
        SOFOS_RETURN_IF_ERROR(qe.Execute(rewritten).status());
        cost[w][v] = timer.ElapsedMicros();
      }
      WallTimer timer;
      SOFOS_RETURN_IF_ERROR(
          qe.Execute(engine_.facet().CanonicalQuerySparql(w)).status());
      cost[w][n] = timer.ElapsedMicros();
    }
    SOFOS_RETURN_IF_ERROR(engine_.DropMaterializedViews());

    SOFOS_ASSIGN_OR_RETURN(auto oracle,
                           core::OracleSelection(engine_.lattice(), k, cost));
    std::printf("oracle best-%zu: %s (expected %.1f us/query)\n", k,
                oracle.ToString(engine_.facet()).c_str(), oracle.benefits[0]);
    for (core::CostModelKind kind :
         {core::CostModelKind::kTripleCount, core::CostModelKind::kAggValueCount,
          core::CostModelKind::kNodeCount}) {
      SOFOS_ASSIGN_OR_RETURN(auto model, engine_.MakeModel(kind));
      SOFOS_ASSIGN_OR_RETURN(auto selection, engine_.SelectViews(*model, k));
      std::printf("%-10s picks %s\n", (*model).name().c_str(),
                  selection.ToString(engine_.facet()).c_str());
    }
    return Status::OK();
  }

  /// The evolving-KG scenario: random insert/delete batches stream into
  /// the base graph; views are repaired incrementally and the staleness
  /// monitor says when the selection is worth redoing.
  Status Update(int batches, double fraction) {
    if (batches < 1 || fraction <= 0 || fraction > 1) {
      return Status::InvalidArgument(
          "usage: update [batches >= 1] [0 < fraction <= 1]");
    }
    workload::UpdateStreamOptions options;
    options.num_batches = batches;
    options.batch_fraction = fraction;
    options.seed = 99 + update_batches_applied_;  // fresh stream per call
    SOFOS_ASSIGN_OR_RETURN(
        auto stream,
        workload::GenerateUpdateStream(engine_.base_snapshot(),
                                       engine_.store()->dictionary(), options));
    bool recommend = false;
    for (const auto& delta : stream) {
      SOFOS_ASSIGN_OR_RETURN(auto outcome, engine_.ApplyUpdates(delta));
      ++update_batches_applied_;
      std::printf("batch %llu: %s\n",
                  static_cast<unsigned long long>(update_batches_applied_),
                  outcome.Summary().c_str());
      recommend = outcome.reselect_recommended;
    }
    PrintStatus();
    if (recommend) {
      std::printf(
          "selection drifted past the staleness threshold: re-optimize with "
          "`drop`, then `select <model> <k>` + `materialize`\n");
    }
    return Status::OK();
  }

  /// `serve [port]` starts the online server over this engine (the REPL
  /// then only accepts `client`/`serve stop`); `serve stop` shuts it down.
  Status Serve(const std::string& arg) {
    if (arg == "stop") {
      if (server_ == nullptr) return Status::InvalidArgument("no server running");
      server_->Stop();
      std::printf("server stopped\n");
      server_.reset();
      return Status::OK();
    }
    if (server_ != nullptr) {
      return Status::InvalidArgument("server already running (serve stop first)");
    }
    server::ServerOptions options;
    if (!arg.empty()) {
      char* end = nullptr;
      long port = std::strtol(arg.c_str(), &end, 10);
      if (end == arg.c_str() || *end != '\0' || port < 0 || port > 65535) {
        return Status::InvalidArgument("usage: serve [port] | serve stop");
      }
      options.port = static_cast<uint16_t>(port);
    }
    auto server = std::make_unique<server::SofosServer>(&engine_, options);
    SOFOS_RETURN_IF_ERROR(server->Start());
    server_ = std::move(server);
    std::printf(
        "serving on 127.0.0.1:%u (line protocol: QUERY <sparql> | "
        "UPDATE [n] [frac] | EXPLAIN [sparql] | ANALYZE [sparql] | TRACE "
        "<sparql> | STATS | METRICS | HISTORY [sec] | SLOW | QUIT)\n",
        server_->port());
    if (server_->http_port() != 0) {
      std::printf(
          "observability http on 127.0.0.1:%u (GET /metrics /stats "
          "/history?window=60 /slow /healthz)\n",
          server_->http_port());
    }
    return Status::OK();
  }

  /// One-shot protocol client: connect, send, print the framed response.
  Status Client(uint16_t port, const std::string& request) {
    if (request.empty()) {
      return Status::InvalidArgument("usage: client <port> <request line>");
    }
    server::BlockingClient client;
    SOFOS_RETURN_IF_ERROR(client.Connect(port));
    SOFOS_ASSIGN_OR_RETURN(server::ClientResponse response,
                           client.Roundtrip(request));
    std::printf("%s\n", response.header.c_str());
    for (const std::string& line : response.body) {
      std::printf("%s\n", line.c_str());
    }
    if (!response.ok()) {
      return Status::Internal("server replied: " + response.header);
    }
    return Status::OK();
  }

  /// `history [sec]`: sliding-window rates and interval percentiles from
  /// the server's telemetry history (the HISTORY verb's body).
  Status History(double window) {
    if (window <= 0) {
      return Status::InvalidArgument("usage: history [window_seconds > 0]");
    }
    if (server_ == nullptr) {
      return Status::InvalidArgument(
          "telemetry history lives in the server's sampler: `serve` first "
          "(or `client <port> HISTORY <sec>` against a remote one)");
    }
    std::printf("%s\n", server_->HistoryJson(window).c_str());
    return Status::OK();
  }

  /// `slow`: the slow-query capture ring (ANALYZE + trace diagnostics for
  /// requests that crossed the server's latency threshold).
  Status Slow() {
    if (server_ == nullptr) {
      return Status::InvalidArgument(
          "slow-query capture runs in the server: `serve` first");
    }
    const server::SlowQueryLog& log = server_->slow_queries();
    std::printf("captured=%llu suppressed=%llu threshold_us=%.1f\n%s\n",
                static_cast<unsigned long long>(log.captured_total()),
                static_cast<unsigned long long>(log.suppressed_total()),
                log.threshold_micros(), log.ToJson().c_str());
    return Status::OK();
  }

  /// `record [on|off|export|clear]`: the engine's workload recorder. With
  /// no argument prints status; `export` loads the replayable recorded
  /// queries into the CLI workload so `run` re-profiles observed traffic.
  Status Record(const std::string& sub) {
    core::WorkloadRecorder* recorder = engine_.recorder();
    if (sub.empty() || sub == "status") {
      std::printf(
          "recorder %s: %zu/%zu entries (recorded %llu, dropped %llu)\n",
          recorder->enabled() ? "on" : "off", recorder->size(),
          recorder->capacity(),
          static_cast<unsigned long long>(recorder->recorded_total()),
          static_cast<unsigned long long>(recorder->dropped_total()));
    } else if (sub == "on" || sub == "off") {
      recorder->Enable(sub == "on");
      std::printf("recorder %s\n", sub.c_str());
    } else if (sub == "clear") {
      recorder->Clear();
      std::printf("recorder cleared\n");
    } else if (sub == "export") {
      std::vector<core::WorkloadQuery> exported = recorder->ExportWorkload();
      if (exported.empty()) {
        return Status::InvalidArgument(
            "no replayable recorded queries yet (cache hits alone carry no "
            "signature)");
      }
      queries_ = std::move(exported);
      std::printf("exported %zu recorded queries into the workload "
                  "(`run` replays them)\n",
                  queries_.size());
    } else {
      return Status::InvalidArgument("usage: record [on|off|export|clear]");
    }
    return Status::OK();
  }

  Status RunSparql(const std::string& query) {
    sparql::QueryEngine qe(engine_.store());
    SOFOS_ASSIGN_OR_RETURN(sparql::QueryResult result, qe.Execute(query));
    std::printf("%s(%llu rows, %.1f us)\n", result.ToTable(20).c_str(),
                static_cast<unsigned long long>(result.NumRows()),
                result.stats.exec_micros);
    return Status::OK();
  }

  /// EXPLAIN: logical plan (join order, algorithms, build/probe sides) plus
  /// the physical batch line. If no query is given, explains the facet's
  /// root-view query — the one the offline pipeline and the maintenance
  /// path keep re-evaluating.
  Status Explain(const std::string& query) {
    std::string text = query;
    size_t first = text.find_first_not_of(" \t");
    text = first == std::string::npos ? std::string() : text.substr(first);
    if (text.empty()) {
      text = engine_.facet().ViewQuerySparql(engine_.facet().FullMask());
      std::printf("(root view query)\n");
    }
    SOFOS_ASSIGN_OR_RETURN(std::string plan, engine_.ExplainSparql(text));
    std::printf("%s", plan.c_str());
    return Status::OK();
  }

  /// EXPLAIN ANALYZE: runs the query with per-operator instrumentation and
  /// prints the plan annotated with actual rows/batches/micros (defaults to
  /// the root-view query like `explain`).
  Status Analyze(const std::string& query) {
    std::string text = query;
    size_t first = text.find_first_not_of(" \t");
    text = first == std::string::npos ? std::string() : text.substr(first);
    if (text.empty()) {
      text = engine_.facet().ViewQuerySparql(engine_.facet().FullMask());
      std::printf("(root view query)\n");
    }
    sparql::QueryEngine qe(engine_.store());
    SOFOS_ASSIGN_OR_RETURN(std::string annotated, qe.Analyze(text));
    std::printf("%s", annotated.c_str());
    return Status::OK();
  }

  /// Runs the query with span tracing enabled and prints the span tree as
  /// JSON (defaults to the root-view query like `explain`).
  Status Trace(const std::string& query) {
    std::string text = query;
    size_t first = text.find_first_not_of(" \t");
    text = first == std::string::npos ? std::string() : text.substr(first);
    if (text.empty()) {
      text = engine_.facet().ViewQuerySparql(engine_.facet().FullMask());
      std::printf("(root view query)\n");
    }
    TraceContext trace;
    sparql::ExecOptions options;
    options.trace = &trace;
    sparql::QueryEngine qe(engine_.store(), options);
    SOFOS_ASSIGN_OR_RETURN(sparql::QueryResult result, qe.Execute(text));
    std::printf("%llu rows, %.1f us wall, %zu spans\n%s\n",
                static_cast<unsigned long long>(result.NumRows()),
                result.stats.exec_micros, trace.Spans().size(),
                trace.ToJson().c_str());
    return Status::OK();
  }

  /// `stats pretty`: the registry snapshot as aligned tables — counters,
  /// gauges, then latency histograms (count + p50/p95/p99/mean).
  void PrintStatsPretty() {
    std::vector<MetricSample> samples = engine_.metrics()->Collect();
    TablePrinter counters({"counter", "value"});
    TablePrinter gauges({"gauge", "value"});
    TablePrinter latencies(
        {"latency", "count", "p50_us", "p95_us", "p99_us", "mean_us"});
    for (const MetricSample& s : samples) {
      switch (s.kind) {
        case MetricSample::Kind::kCounter:
          counters.AddRow({s.name, TablePrinter::Cell(s.counter_value)});
          break;
        case MetricSample::Kind::kGauge:
          gauges.AddRow({s.name, TablePrinter::Cell(s.gauge_value, 2)});
          break;
        case MetricSample::Kind::kHistogram:
          latencies.AddRow({s.name, TablePrinter::Cell(s.histogram.count),
                            TablePrinter::Cell(s.histogram.P50(), 1),
                            TablePrinter::Cell(s.histogram.P95(), 1),
                            TablePrinter::Cell(s.histogram.P99(), 1),
                            TablePrinter::Cell(s.histogram.MeanMicros(), 1)});
          break;
      }
    }
    if (counters.num_rows()) counters.Print();
    if (gauges.num_rows()) gauges.Print();
    if (latencies.num_rows()) latencies.Print();
    if (!counters.num_rows() && !gauges.num_rows() && !latencies.num_rows()) {
      std::printf("(no metrics recorded yet)\n");
    }
    PrintTopViews();
  }

  /// `top`: per-view traffic *rates* over the trailing minute, derived
  /// from the serving telemetry history (lifetime counters say which view
  /// was ever hot; rates say which one is hot now). Prints nothing until
  /// the sampler has two samples inside the window.
  void PrintTopViews() {
    if (server_ == nullptr || server_->telemetry() == nullptr) return;
    TelemetryWindow window = server_->telemetry()->Window(60.0);
    if (!window.valid) return;
    const std::string kHits = "sofos_view_hits_total{view=\"";
    const std::string kBenefit = "sofos_view_benefit_rows_total{view=\"";
    TablePrinter top({"view", "hits_per_s", "benefit_rows_per_s"});
    for (const auto& [name, rate] : window.rates) {
      if (name.rfind(kHits, 0) != 0 || name.size() < kHits.size() + 2) {
        continue;
      }
      std::string label =
          name.substr(kHits.size(), name.size() - kHits.size() - 2);
      double benefit_per_s = 0.0;
      auto it = window.rates.find(kBenefit + label + "\"}");
      if (it != window.rates.end()) benefit_per_s = it->second.per_second;
      top.AddRow({label, TablePrinter::Cell(rate.per_second, 2),
                  TablePrinter::Cell(benefit_per_s, 2)});
    }
    if (top.num_rows()) {
      std::printf("top views (trailing %.0fs):\n", window.window_seconds);
      top.Print();
    }
  }

  core::SofosEngine engine_;
  datagen::DatasetSpec spec_;
  core::SelectionResult pending_;
  bool has_pending_ = false;
  bool had_error_ = false;
  std::vector<core::WorkloadQuery> queries_;
  uint64_t update_batches_applied_ = 0;
  std::unique_ptr<server::SofosServer> server_;  // live while `serve` is on
};

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = argc > 1 ? argv[1] : "geopop";
  std::string scale_name = argc > 2 ? argv[2] : "tiny";
  auto scale = sofos::datagen::ParseScaleSpec(scale_name);
  if (!scale.ok()) {
    std::fprintf(stderr, "%s\n", scale.status().ToString().c_str());
    return 1;
  }
  Cli cli;
  if (argc > 3) {
    char* end = nullptr;
    long n = std::strtol(argv[3], &end, 10);
    if (end == argv[3] || *end != '\0' || n < 0 ||
        n > static_cast<long>(sofos::ThreadPool::kMaxThreads)) {
      std::fprintf(stderr, "invalid num_threads '%s' (expected 0..%zu)\n",
                   argv[3], sofos::ThreadPool::kMaxThreads);
      return 1;
    }
    cli.SetNumThreads(static_cast<unsigned>(n));
  }
  sofos::Status status = cli.LoadDataset(dataset, *scale);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  cli.Repl();
  // Nonzero when any command failed, so piped scripts and CI smoke tests
  // can detect errors instead of parsing stdout.
  return cli.had_error() ? 1 : 0;
}
