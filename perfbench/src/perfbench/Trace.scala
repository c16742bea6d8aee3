package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One call into a module of the program, timed from the benchmark's side
  * of the boundary. `parent` is the enclosing span's id (-1 at a root);
  * spans of one iteration share `run`. `counts` holds work counted at the
  * same boundary (rows, pairs, bytes).
  */
final case class Span(
    id: Int,
    parent: Int,
    name: String,
    layer: String,
    run: String,
    startNs: Long,
    var endNs: Long,
    counts: mutable.LinkedHashMap[String, Double],
) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder. With `enabled = false` every call runs its body
  * and records nothing, so untraced iterations pay no tracing cost.
  *
  * While a span is open its id is set as a Spark local property, so the
  * [[EngineCounters]] listener can attribute each job's tasks to the
  * innermost span that started it.
  */
final class Tracer(val enabled: Boolean, sc: SparkContext) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil
  private var run = ""

  def startRun(id: String): Unit = run = id

  def apply[T](layer: String, name: String)(body: => T): T =
    if (!enabled) body
    else {
      val s = Span(spans.size, stack.headOption.fold(-1)(_.id), name, layer, run,
        System.nanoTime(), 0L, mutable.LinkedHashMap.empty)
      spans += s
      stack = s :: stack
      val prev = sc.getLocalProperty(Tracer.SpanKey)
      sc.setLocalProperty(Tracer.SpanKey, s.id.toString)
      try body
      finally {
        s.endNs = System.nanoTime()
        stack = stack.tail
        sc.setLocalProperty(Tracer.SpanKey, prev)
      }
    }

  /** Add `v` to counter `key` of the innermost open span. */
  def count(key: String, v: Double): Unit =
    if (enabled) stack.headOption.foreach(s => s.counts(key) = s.counts.getOrElse(key, 0.0) + v)

  def children(id: Int): Seq[Span] = spans.filter(_.parent == id).toSeq

  /** Duration minus the part covered by child spans. Children run
    * sequentially on the driver thread, so they never overlap.
    */
  def selfMs(s: Span): Double = s.ms - children(s.id).map(_.ms).sum

  def descendants(id: Int): Seq[Span] = {
    val cs = children(id)
    cs ++ cs.flatMap(c => descendants(c.id))
  }

  def named(run: String, name: String): Seq[Span] = spans.filter(s => s.run == run && s.name == name).toSeq
}

object Tracer {
  val SpanKey = "perfbench.span"
}

/** Engine counters per span, read from Spark's listener bus. Only
  * registered for traced runs.
  */
final class EngineCounters extends SparkListener {
  import EngineCounters._

  private val stageSpan = new ConcurrentHashMap[Int, Int]()
  private val stageSubmitted = new ConcurrentHashMap[Int, Long]()
  private val bySpan = new ConcurrentHashMap[Int, Array[Double]]()

  private def add(span: Int, i: Int, v: Double): Unit =
    bySpan.computeIfAbsent(span, _ => new Array[Double](Keys.size))(i) += v

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey))).fold(-1)(_.toInt)
    e.stageInfos.foreach(si => stageSpan.put(si.stageId, span))
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    stageSubmitted.put(e.stageInfo.stageId, e.stageInfo.submissionTime.getOrElse(System.currentTimeMillis()))

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    add(stageSpan.getOrDefault(e.stageInfo.stageId, -1), Keys.indexOf("stages"), 1)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val span = stageSpan.getOrDefault(e.stageId, -1)
    add(span, Keys.indexOf("tasks"), 1)
    val submitted = stageSubmitted.getOrDefault(e.stageId, e.taskInfo.launchTime)
    add(span, Keys.indexOf("task_wait_ms"), math.max(0L, e.taskInfo.launchTime - submitted).toDouble)
    val m = e.taskMetrics
    if (m != null) {
      add(span, Keys.indexOf("shuffle_write_bytes"), m.shuffleWriteMetrics.bytesWritten.toDouble)
      add(span, Keys.indexOf("shuffle_read_bytes"), m.shuffleReadMetrics.totalBytesRead.toDouble)
      add(span, Keys.indexOf("executor_run_ms"), m.executorRunTime.toDouble)
      add(span, Keys.indexOf("executor_cpu_ms"), m.executorCpuTime / 1e6)
      add(span, Keys.indexOf("gc_ms"), m.jvmGCTime.toDouble)
    }
  }

  /** Counters summed over the given spans; call after [[EngineCounters.drain]]. */
  def sum(ids: Iterable[Int]): Map[String, Double] = synchronized {
    val tot = new Array[Double](Keys.size)
    ids.foreach(id => Option(bySpan.get(id)).foreach(a => a.indices.foreach(i => tot(i) += a(i))))
    Keys.zip(tot).toMap
  }
}

object EngineCounters {
  val Keys = Vector("tasks", "stages", "shuffle_write_bytes", "shuffle_read_bytes",
    "executor_run_ms", "executor_cpu_ms", "gc_ms", "task_wait_ms")

  def drain(sc: SparkContext): Unit = org.apache.spark.ListenerBusAccess.waitUntilEmpty(sc)
}

/** The traced run's tracer and listener, for reading a span's engine
  * counters (its own jobs and its descendants') from the workloads.
  */
object Engine {
  private var tracer: Tracer = _
  private var counters: EngineCounters = _
  private var sc: SparkContext = _

  def attach(t: Tracer, c: EngineCounters, context: SparkContext): Unit = { tracer = t; counters = c; sc = context }

  def of(id: Int, key: String): Double =
    if (counters == null) 0.0
    else {
      EngineCounters.drain(sc)
      counters.sum(id +: tracer.descendants(id).map(_.id))(key)
    }
}
