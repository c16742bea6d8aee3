package perfbench

import java.nio.file.Path
import org.apache.spark.SparkContext
import Main.median

/** Per-layer metrics of a traced run, and the span dump they come from. */
object Layers {

  /** Every per-layer metric with its unit. A workload that does not call
    * a layer reports 0 for it: that layer did no work.
    */
  val Units: Seq[(String, String)] = Seq(
    "data.generate_ms" -> "ms",
    "embedding.dict_ms" -> "ms",
    "core.embed_ms" -> "ms",
    "core.tuples" -> "count",
    "core.collect_ms" -> "ms",
    "core.sample_ms" -> "ms",
    "core.sample_pairs" -> "count",
    "core.featurize_ms" -> "ms",
    "core.cv_self_ms" -> "ms",
    "nn.fit_ms" -> "ms",
    "nn.fit_example_epochs" -> "count",
    "nn.fit_us_per_example_epoch" -> "us",
    "lsh.sign_ms" -> "ms",
    "lsh.sign_rows" -> "count",
    "lsh.join_ms" -> "ms",
    "lsh.join_shuffle_bytes" -> "bytes",
    "lsh.candidates" -> "count",
    "lsh.gold_per_candidate" -> "ratio",
    "lsh.max_bucket_pairs" -> "count",
    "lsh.probe_ms" -> "ms",
    "lsh.probe_rows" -> "count",
    "lsh.probe_shuffle_bytes" -> "bytes",
    "lsh.topn_pairs" -> "count",
    "lsh.recall_ms" -> "ms",
    "exp.score_ms" -> "ms",
    "exp.score_shuffle_bytes" -> "bytes",
    "exp.scored_pairs" -> "count",
    "spark.tasks" -> "count",
    "spark.stages" -> "count",
    "spark.shuffle_write_bytes" -> "bytes",
    "spark.shuffle_read_bytes" -> "bytes",
    "spark.executor_run_ms" -> "ms",
    "spark.executor_cpu_ms" -> "ms",
    "spark.gc_ms" -> "ms",
    "spark.task_wait_ms" -> "ms",
    "ref.exact_cosine_ms" -> "ms",
    "trace.overhead_pct" -> "%",
  )

  /** Only train-ag computes these, and it is not in BENCHMARK.json's
    * workload list, so the other workloads leave them out.
    */
  val TrainOnly = Set("core.sample_ms", "core.sample_pairs", "core.cv_self_ms")

  /** Medians over the traced iterations. `spark.*` counts the jobs of the
    * iteration's main path (not its replays); `trace.overhead_pct` compares
    * that path's traced time with the untraced iterations of the same run.
    */
  def metrics(
      w: Workload, tr: Tracer, counters: EngineCounters, traced: Seq[(String, Map[String, Double])],
      untracedS: Seq[Double], sc: SparkContext,
  ): Seq[(String, (Double, String))] = {
    EngineCounters.drain(sc)
    val perIteration = traced.map { case (run, layers) =>
      val main = tr.named(run, "workload").head
      val engine = counters.sum(main.id +: tr.descendants(main.id).map(_.id))
      layers ++ engine.map { case (k, v) => s"spark.$k" -> v } + ("main_ms" -> main.ms)
    }
    def setup(name: String) = median(tr.spans.toSeq.filter(s => s.run.startsWith("setup-") && s.name == name).map(_.ms))
    val derived = Map(
      "data.generate_ms" -> setup("ERDatasets.generate"),
      "embedding.dict_ms" -> setup("Dicts.gloveLike"),
      "ref.exact_cosine_ms" -> exactCosineMs(w),
      "trace.overhead_pct" -> (median(perIteration.map(_("main_ms"))) / (median(untracedS) * 1000) - 1) * 100,
    )
    Units.filter { case (k, _) => !TrainOnly(k) || perIteration.exists(_.contains(k)) }.map { case (k, unit) =>
      k -> (derived.getOrElse(k, median(perIteration.map(_.getOrElse(k, 0.0)))), unit)
    }
  }

  /** Single-thread exact all-pairs cosine over the same DRs, the reference
    * the LSH blocking has to beat. Median of three passes.
    */
  def exactCosineMs(w: Workload): Double = {
    val (a, b) = w.drs()
    def unit(v: Array[Double]) = {
      val n = math.sqrt(v.map(x => x * x).sum)
      if (n == 0) v.map(_ => 0.0) else v.map(_ / n)
    }
    val (ua, ub) = (a.map(unit), b.map(unit))
    var sink = 0.0
    val times = (1 to 3).map { _ =>
      val t = System.nanoTime()
      var i = 0
      while (i < ua.length) {
        val x = ua(i)
        var j = 0
        while (j < ub.length) {
          val y = ub(j)
          var s = 0.0
          var k = 0
          while (k < x.length) { s += x(k) * y(k); k += 1 }
          sink += s
          j += 1
        }
        i += 1
      }
      (System.nanoTime() - t) / 1e6
    }
    if (sink.isNaN) throw new AssertionError("NaN cosine")
    median(times)
  }

  /** Writes every span with its self time and engine counters, and per
    * iteration the wall time, the sum of its spans' self times (equal to
    * the wall time by construction) and the self time by layer.
    * Schema `perfbench.trace/1`.
    */
  def dump(path: Path, tr: Tracer, counters: EngineCounters, meta: Map[String, Any],
      metrics: Seq[(String, (Double, String))]): Unit = {
    val base = tr.spans.headOption.fold(0L)(_.startNs)
    val spans = tr.spans.map { s =>
      Map(
        "id" -> s.id, "parent" -> s.parent, "run" -> s.run, "layer" -> s.layer, "name" -> s.name,
        "start_ms" -> (s.startNs - base) / 1e6, "end_ms" -> (s.endNs - base) / 1e6,
        "dur_ms" -> s.ms, "self_ms" -> tr.selfMs(s), "counts" -> s.counts,
        "engine" -> counters.sum(Seq(s.id)),
      )
    }
    val runs = tr.spans.filter(_.parent == -1).map { root =>
      val all = root +: tr.descendants(root.id)
      val selfSum = all.map(tr.selfMs).sum
      if (math.abs(selfSum - root.ms) > 1e-6 * math.max(1.0, root.ms))
        throw new AssertionError(s"self times of ${root.run} add up to $selfSum ms, wall ${root.ms} ms")
      Map(
        "run" -> root.run, "root" -> root.name, "wall_ms" -> root.ms, "self_sum_ms" -> selfSum,
        "self_ms_by_layer" -> all.groupBy(_.layer).map { case (l, ss) => l -> ss.map(tr.selfMs).sum },
      )
    }
    Json.write(path, Map(
      "schema" -> "perfbench.trace/1",
      "meta" -> meta,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }.toMap,
      "runs" -> runs,
      "spans" -> spans,
    ))
  }
}
