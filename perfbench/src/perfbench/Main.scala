package perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer

/** Benchmark entry point, launched by `perfbench/run.py`:
  * {{{
  * Main --workload block-ag --seed 404 --seconds 10 --trace 0 [--out DIR]
  * Main --selfcheck [--out DIR]
  * }}}
  * Prints a human summary, one `{"meta": …}` line, and as its last line
  * the result object `{"correct", "attempted", "failed", "metrics"}`.
  * With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
  * the per-layer ones, and the spans are written to `DIR/traces/`.
  */
object Main {
  val SetupPasses = 11
  // The first iterations in a JVM run slower (class loading, code
  // generation, JIT); they are not part of the measured window. The JIT
  // keeps compiling Spark's code for about half a minute after the output
  // checks, so the warm-up runs for a time, not a count.
  val WarmupSeconds = 10.0
  val MinWarmupIterations = 2
  val MinIterations = 3
  val MaxFailures = 3
  val ShufflePartitions = 64

  final case class Opts(
      workload: String = "",
      seed: Long = ProdAG.DefaultSeed,
      seconds: Double = 10,
      trace: Boolean = false,
      out: String = ".bench_build",
      selfcheck: Boolean = false,
  )

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest    => parse(rest, o.copy(trace = v == "1"))
    case "--out" :: v :: rest      => parse(rest, o.copy(out = v))
    case "--selfcheck" :: rest     => parse(rest, o.copy(selfcheck = true))
    case Nil                       => o
    case other                     => throw new IllegalArgumentException(s"unknown arguments: ${other.mkString(" ")}")
  }

  /** Spark's task threads. The machine's other cores are left to the
    * driver thread (which trains the `MLPClassifier`), JIT and GC, so that
    * on a shared host the run does not compete with itself for cores.
    */
  val Cores = math.min(2, Runtime.getRuntime.availableProcessors)

  /** The session settings of the repository's tests and jobs, except for
    * the task threads: 64 shuffle partitions, broadcast joins off.
    */
  def session(out: String, cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(out, "spark-local").toAbsolutePath.toString)
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList)
    val t0 = System.nanoTime()
    // The self-check runs on every core, as the repository's tests and jobs
    // do (local[*]): endToEnd's sampled training negatives, and so its
    // precision and recall, change with the number of task threads.
    val spark = session(o.out, if (o.selfcheck) Runtime.getRuntime.availableProcessors else Cores)
    val sessionS = (System.nanoTime() - t0) / 1e9
    val code =
      try {
        val (meta, result) = if (o.selfcheck) SelfCheck.run(spark) else run(spark, o, sessionS)
        println(Json(Map("meta" -> meta)))
        println(Json(result))
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      } finally spark.stop()
    System.exit(code)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def timed[T](body: => T): (Double, T) = {
    val t = System.nanoTime()
    val r = body
    ((System.nanoTime() - t) / 1e9, r)
  }

  /** Heap in use after a full GC. Spark's ContextCleaner frees unreferenced
    * broadcasts and shuffles asynchronously after the first GC finds them,
    * so collect again once it has run.
    */
  private def heapMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc()
    Thread.sleep(500)
    System.gc()
    (rt.totalMemory - rt.freeMemory) / 1048576.0
  }

  def environment(spark: SparkSession): Map[String, Any] = {
    val memKb = scala.util.Try(scala.io.Source.fromFile("/proc/meminfo").getLines()
      .collectFirst { case l if l.startsWith("MemTotal:") => l.split("\\s+")(1).toLong }.get).getOrElse(0L)
    Map(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "memory_mb" -> memKb / 1024,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "spark_version" -> spark.version,
      "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "auto_broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
    )
  }

  def run(spark: SparkSession, o: Opts, sessionS: Double): (Map[String, Any], Map[String, Any]) = {
    val sc = spark.sparkContext
    val w = Workloads(o.workload, spark, o.seed)
    val off = new Tracer(false, sc)
    val tr = new Tracer(o.trace, sc)
    val counters = new EngineCounters
    if (o.trace) {
      sc.addSparkListener(counters)
      Engine.attach(tr, counters, sc)
    }

    var attempted = 1
    var failed = 0
    def attempt[T](what: String)(body: => T): Option[T] =
      try Some(body)
      catch {
        case e: Throwable =>
          failed += 1
          Console.err.println(s"[perfbench] $what failed: $e")
          None
      }

    val setupS = (1 to SetupPasses).map { i => tr.startRun(s"setup-$i"); timed(w.setup(tr))._1 }
    val (checkS, runValues) = timed(attempt("output check")(w.checkRun()).getOrElse(Map.empty[String, Double]))
    val warmupEnd = System.nanoTime() + (WarmupSeconds * 1e9).toLong
    val warmupS = ArrayBuffer.empty[Double]
    while (System.nanoTime() < warmupEnd || warmupS.size < MinWarmupIterations) warmupS += timed(w.iterate(off))._1
    val heap = heapMb()

    val untraced = ArrayBuffer.empty[(Double, Outcome)]
    val traced = ArrayBuffer.empty[(String, Map[String, Double])]
    // Measured window: back-to-back iterations (a closed loop, one client).
    // Traced runs alternate untraced and traced iterations.
    val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
    // A traced iteration replays its calls, so traced runs need only one of each.
    val minUntraced = if (o.trace) 1 else MinIterations
    def due = System.nanoTime() < deadline || untraced.size < minUntraced || (o.trace && traced.isEmpty)
    var i = 0
    while (due && failed <= MaxFailures) {
      attempted += 1
      if (o.trace && i % 2 == 1) {
        val run = s"${w.name}-s${o.seed}-i$i"
        tr.startRun(run)
        attempt(s"traced iteration $i") {
          val (out, layers) = tr("bench", "iteration") {
            val out = tr("bench", "workload")(w.iterate(tr))
            (out, tr("bench", "replay")(w.replay(tr, run)))
          }
          w.checkIteration(out)
          traced += ((run, layers))
        }
      } else
        attempt(s"iteration $i") {
          val (s, out) = timed(w.iterate(off))
          w.checkIteration(out)
          untraced += ((s, out))
        }
      i += 1
    }

    val iterS = median(untraced.map(_._1).toSeq)
    val quality = median(untraced.map(_._2.quality).toSeq)
    val named = (w.summary(iterS, untraced.map(_._2).toSeq, runValues) :+ (("fail_ratio", failed.toDouble / attempted, "ratio")))
      .map { case (k, v, unit) => k -> Map("value" -> v, "unit" -> unit) }.toMap
    val meta = Map(
      "workload" -> w.name,
      "seed" -> o.seed,
      "scale" -> w.scale,
      "sizes" -> Map("nA" -> w.nA, "nB" -> w.nB, "matches" -> w.gold.size),
      "loop" -> "closed",
      "clients" -> 1,
      "seconds" -> o.seconds,
      "trace" -> o.trace,
      "environment" -> environment(spark),
      "session_s" -> sessionS,
      "setup_pass_s" -> setupS,
      "warmup_s" -> warmupS.toSeq,
      "check_s" -> checkS,
      "cpu_calibration_ms" -> calibrationMs(),
      "iteration_s_samples" -> untraced.map(_._1).toSeq,
      "results" -> named,
    )
    val correct = failed == 0 && untraced.nonEmpty
    val metrics: Map[String, Any] =
      if (!o.trace) Map(
        "iteration_s" -> Map("value" -> iterS, "unit" -> "s"),
        "setup_s" -> Map("value" -> median(setupS), "unit" -> "s"),
        "setup_heap_mb" -> Map("value" -> heap, "unit" -> "MB"),
        "quality" -> Map("value" -> quality, "unit" -> "ratio"),
      )
      else {
        val layers = Layers.metrics(w, tr, counters, traced.toSeq, untraced.map(_._1).toSeq, sc)
        Layers.dump(Paths.get(o.out, "traces", s"${w.name}-seed${o.seed}.json"), tr, counters, meta, layers)
        layers.map { case (k, (v, unit)) => k -> Map("value" -> v, "unit" -> unit) }.toMap
      }
    val result = Map("correct" -> correct, "attempted" -> attempted, "failed" -> failed, "metrics" -> metrics)
    (meta, result)
  }

  /** A fixed single-thread loop that runs no program code: how fast this
    * machine was during the run, for reading timings across runs.
    */
  private def calibrationMs(): Double = median((1 to 5).map { _ =>
    val t = System.nanoTime()
    var x = 0L
    var i = 0
    while (i < 50000000) { x = x * 6364136223846793005L + i; i += 1 }
    if (x == 42) println()
    (System.nanoTime() - t) / 1e6
  })
}

/** Minimal JSON writer for the result lines and the span dump. */
object Json {
  def apply(v: Any): String = v match {
    case null                   => "null"
    case s: String              => quote(s)
    case b: Boolean             => b.toString
    case d: Double              => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float               => apply(f.toDouble)
    case n: Int                 => n.toString
    case n: Long                => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case s: Iterable[_]         => s.map(apply).mkString("[", ", ", "]")
    case a: Array[_]            => apply(a.toSeq)
    case other                  => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }

  def write(path: java.nio.file.Path, v: Any): Unit = {
    Files.createDirectories(path.getParent)
    Files.writeString(path, apply(v) + "\n")
  }
}
