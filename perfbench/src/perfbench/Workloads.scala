package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DeepER, Similarity, TupleEmbedder}
import repro.data._
import repro.data.ERDatasets.{AttrGen, Numeric, Words}
import repro.embedding.EmbeddingDict
import repro.exp.{BlockingExperiments, Dicts, Experiments}
import repro.exp.BlockingExperiments.BlockPrep
import repro.lsh.{MultiProbeLSH, RandomHyperplaneLSH}
import repro.nn.MLPClassifier

/** Prod-AG's attribute spec and noise, as in `ERDatasets.prodAG`, with the
  * size scaled and the data seed taken from the command line. At scale 1
  * and seed 404 the rows equal `ERDatasets.prodAG`'s ([[SelfCheck]]).
  */
object ProdAG {
  val DefaultSeed = 404L
  val (baseA, baseB, baseMatches) = (600, 1200, 500)

  def attrGens: Seq[AttrGen] = Seq(
    AttrGen("title",        Words(new WordPool("agti", 500, 3, seed = 400), 3, 8)),
    AttrGen("description",  Words(new WordPool("agde", 800, 3, seed = 401), 10, 25, presence = 0.9)),
    AttrGen("manufacturer", Words(new WordPool("agmf", 80, 3, seed = 402), 1, 2)),
    AttrGen("category",     Words(new WordPool("agca", 30, 2, seed = 403), 1, 1)),
    AttrGen("price",        Numeric(5, 500)),
  )

  val noise = Noise(synonymRate = 0.50, typoRate = 0.15, dropRate = 0.25,
    nullifyRate = 0.08, shuffleRate = 0.5, numericJitter = 0.15)

  def sizes(scale: Double): (Int, Int, Int) =
    ((baseA * scale).round.toInt, (baseB * scale).round.toInt, (baseMatches * scale).round.toInt)

  def generate(spark: SparkSession, scale: Double, seed: Long): ERDataset = {
    val (nA, nB, nM) = sizes(scale)
    ERDatasets.generate(spark, "Prod-AG", attrGens, nA, nB, nM, noise, easy = false, seed = seed)
  }
}

/** What one iteration produced: the workload's headline quality (a share
  * in [0, 1]) and the named outputs behind it.
  */
final case class Outcome(quality: Double, values: Map[String, Double])

/** One closed-loop, single-client workload. [[Main]] calls [[setup]]
  * several times, [[checkRun]] once, [[iterate]] untimed for a fixed
  * warm-up time, then [[iterate]] back to back for the measured window.
  */
abstract class Workload(val spark: SparkSession, val scale: Double, val seed: Long) {
  def name: String

  /** The workload's named end-to-end outputs for the summary (resolve_s,
    * pc, f1, …), from the median iteration time, the iterations' outcomes
    * and the run-level check values.
    */
  def summary(iterS: Double, outs: Seq[Outcome], run: Map[String, Double]): Seq[(String, Double, String)]

  protected def median(outs: Seq[Outcome], key: String): Double = Main.median(outs.map(_.values(key)))

  var ds: ERDataset = _
  var dict: EmbeddingDict = _
  lazy val gold: Set[(Long, Long)] =
    ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
  lazy val (nA, nB) = (ds.nA, ds.nB)

  /** One set-up pass: generate the inputs and build the dictionary. */
  def setup(t: Tracer): Unit = t("bench", "setup") {
    ds = t("data", "ERDatasets.generate")(ProdAG.generate(spark, scale, seed))
    dict = t("embedding", "Dicts.gloveLike")(Dicts.gloveLike(ds.forms))
  }

  /** The measured iteration. Spans record only when `t` is enabled. */
  def iterate(t: Tracer): Outcome

  /** Traced runs only: replay the public calls that [[iterate]]'s calls
    * make, one by one with the same arguments, each in its own span, and
    * return the workload's layer metrics for this iteration. `run` names
    * the iteration whose main-path spans are read.
    */
  def replay(t: Tracer, run: String): Map[String, Double]

  /** Output checks made once per run, outside the measured window; each
    * compares against a reference that does not use the code under test.
    * Returns run-level values (for example PC and RR).
    */
  def checkRun(): Map[String, Double]

  /** Checks on one iteration's output; throws on a wrong result. */
  def checkIteration(o: Outcome): Unit

  /** The DRs of both tables, for the exact all-pairs reference. */
  def drs(): (Array[Array[Double]], Array[Array[Double]]) = {
    def coll(df: DataFrame) = TupleEmbedder.withAvgVectors(spark, df, ds.attrs, dict)
      .select("dr").collect().map(_.getSeq[Double](0).toArray)
    (coll(ds.tableA), coll(ds.tableB))
  }

  protected def embedBoth(t: Tracer, d: EmbeddingDict): (DataFrame, DataFrame) =
    t("core", "TupleEmbedder.withAvgVectors") {
      def dr(df: DataFrame) = {
        val x = TupleEmbedder.withAvgVectors(spark, df, ds.attrs, d).select("id", "vecs", "dr").cache()
        x.count()
        x
      }
      t.count("tuples", (nA + nB).toDouble)
      (dr(ds.tableA), dr(ds.tableB))
    }

  protected def unpersist(dfs: DataFrame*): Unit = dfs.foreach(_.unpersist(blocking = true))

  protected def ms(t: Tracer, run: String, name: String): Double = t.named(run, name).map(_.ms).sum

  protected def countOf(t: Tracer, run: String, name: String, key: String): Double =
    t.named(run, name).map(_.counts.getOrElse(key, 0.0)).sum

  protected def require(ok: Boolean, what: => String): Unit =
    if (!ok) throw new AssertionError(s"$name: $what")
}

object Workloads {
  val names = Seq("block-ag", "probe-ag4", "train-ag")

  def apply(name: String, spark: SparkSession, seed: Long): Workload = name match {
    case "block-ag"  => new BlockAG(spark, seed)
    case "probe-ag4" => new ProbeAG4(spark, seed)
    case "train-ag"  => new TrainAG(spark, seed)
    case other       => throw new IllegalArgumentException(s"unknown workload $other (one of ${names.mkString(", ")})")
  }
}

// ---------------------------------------------------------------------
// block-ag: the deployment path of Figure 11
// ---------------------------------------------------------------------

object BlockAG {
  val Scale = 0.125
  val (k, l) = (4, 10)
  val EvalSeed = 23L  // the model endToEnd scores with
  val TrainSeed = 31L // the model endToEnd draws training negatives from
  val cfg = DeepER.Config(folds = 1, epochs = 15) // endToEnd's defaults
  val maxTrainNeg = 30000
}

/** `prepareBlocks`, then `endToEnd(K=4, L=10)`, then unpersist: embed,
  * train on blocked negatives, sign, bucket join, broadcast-MLP scoring
  * and evaluation.
  */
final class BlockAG(spark: SparkSession, seed: Long) extends Workload(spark, BlockAG.Scale, seed) {
  import BlockAG._
  def name = "block-ag"

  def summary(iterS: Double, outs: Seq[Outcome], run: Map[String, Double]): Seq[(String, Double, String)] =
    Seq(("resolve_s", iterS, "s"), ("precision", median(outs, "precision"), "ratio"),
      ("recall", median(outs, "recall"), "ratio")) ++
      Seq("pc", "rr").flatMap(k => run.get(k).map(v => (k, v, "ratio")))
  // Blocking outputs of the evaluation model, from checkRun.
  private var blocking = Map.empty[String, Double]

  def iterate(t: Tracer): Outcome = {
    val p = t("exp", "BlockingExperiments.prepareBlocks")(BlockingExperiments.prepareBlocks(spark, ds))
    val Seq((_, _, prec, rec)) =
      t("exp", "BlockingExperiments.endToEnd")(BlockingExperiments.endToEnd(spark, p, Seq((k, l))))
    t("bench", "unpersist")(unpersist(p.drA, p.drB))
    val f1 = if (prec + rec == 0) 0.0 else 2 * prec * rec / (prec + rec)
    Outcome(f1, Map("precision" -> prec, "recall" -> rec))
  }

  def replay(t: Tracer, run: String): Map[String, Double] = {
    // prepareBlocks' calls
    val d = t("embedding", "Dicts.gloveLike")(Dicts.gloveLike(ds.forms))
    val (a, b) = embedBoth(t, d)
    val p = BlockPrep(ds, a, b, ds.attrs.size * Dicts.dim)
    // endToEnd's calls, in its order
    t("bench", "replay endToEnd") {
      t("embedding", "Dicts.gloveLike")(Dicts.gloveLike(ds.forms))
      val (vecsA, vecsB) = t("core", "TupleEmbedder.collectAvgVectors")(
        (TupleEmbedder.collectAvgVectors(spark, ds.tableA, ds.attrs, d),
          TupleEmbedder.collectAvgVectors(spark, ds.tableB, ds.attrs, d)))
      val matches = ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toIndexedSeq
      val trainCands = t("lsh", "RandomHyperplaneLSH.candidatePairs") {
        val rows = RandomHyperplaneLSH.candidatePairs(spark, a, b,
          RandomHyperplaneLSH.model(p.dim, k, l, seed = TrainSeed)).collect()
        t.count("pairs", rows.length.toDouble)
        rows
      }
      val negPairs = trainCands.map(r => (r.getLong(0), r.getLong(1))).filterNot(gold)
      val negSample = new scala.util.Random(cfg.seed).shuffle(negPairs.toIndexedSeq).take(maxTrainNeg)
      val labelled = matches.map(m => (m, 1.0)) ++ negSample.map(n => (n, 0.0))
      val feats = t("core", "Similarity.cosineVector") {
        labelled.map { case ((x, y), _) => Similarity.cosineVector(vecsA(x), vecsB(y)) }
      }
      val ys = labelled.map(_._2)
      val mlp = new MLPClassifier(ds.attrs.size, cfg.hidden, cfg.seed)
      t("nn", "MLPClassifier.fit") {
        mlp.fit(feats, ys, cfg.epochs, cfg.batchSize, cfg.lr, cfg.l2, cfg.seed)
        t.count("example_epochs", feats.size.toDouble * cfg.epochs)
      }
      t("core", "DeepER.bestThreshold")(DeepER.bestThreshold(feats.map(mlp.predictProb), ys))
      t("lsh", "RandomHyperplaneLSH.candidatePairs") {
        val n = RandomHyperplaneLSH.candidatePairs(spark, a, b,
          RandomHyperplaneLSH.model(p.dim, k, l, seed = EvalSeed)).count()
        t.count("pairs", n.toDouble)
      }
    }
    // Signing alone, under the evaluation model.
    val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = EvalSeed)
    t("lsh", "RandomHyperplaneLSH.signatures") {
      t.count("rows", (RandomHyperplaneLSH.signatures(spark, a, m).count() +
        RandomHyperplaneLSH.signatures(spark, b, m).count()).toDouble)
    }
    unpersist(a, b)

    val replayed = t.children(t.named(run, "replay endToEnd").head.id)
    val e2e = t.named(run, "BlockingExperiments.endToEnd").head
    val joins = replayed.filter(_.name == "RandomHyperplaneLSH.candidatePairs")
    val fitMs = ms(t, run, "MLPClassifier.fit")
    val exEp = countOf(t, run, "MLPClassifier.fit", "example_epochs")
    Map(
      "core.embed_ms" -> ms(t, run, "TupleEmbedder.withAvgVectors"),
      "core.tuples" -> countOf(t, run, "TupleEmbedder.withAvgVectors", "tuples"),
      "core.collect_ms" -> ms(t, run, "TupleEmbedder.collectAvgVectors"),
      "core.featurize_ms" -> ms(t, run, "Similarity.cosineVector"),
      "nn.fit_ms" -> fitMs,
      "nn.fit_example_epochs" -> exEp,
      "nn.fit_us_per_example_epoch" -> fitMs * 1000 / exEp,
      "lsh.sign_ms" -> ms(t, run, "RandomHyperplaneLSH.signatures"),
      "lsh.sign_rows" -> countOf(t, run, "RandomHyperplaneLSH.signatures", "rows"),
      "lsh.join_ms" -> joins.map(_.ms).sum,
      "lsh.join_shuffle_bytes" -> joins.map(s => Engine.of(s.id, "shuffle_write_bytes")).sum,
      "lsh.candidates" -> blocking("candidates"),
      "lsh.gold_per_candidate" -> blocking("gold_hits") / blocking("candidates"),
      "lsh.max_bucket_pairs" -> blocking("max_bucket_pairs"),
      "exp.score_ms" -> (e2e.ms - replayed.map(_.ms).sum),
      "exp.score_shuffle_bytes" ->
        (Engine.of(e2e.id, "shuffle_write_bytes") - joins.map(s => Engine.of(s.id, "shuffle_write_bytes")).sum),
      "exp.scored_pairs" -> blocking("candidates"),
    )
  }

  def checkRun(): Map[String, Double] = {
    val p = BlockingExperiments.prepareBlocks(spark, ds)
    val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = EvalSeed)
    val cands = RandomHyperplaneLSH.candidatePairs(spark, p.drA, p.drB, m).cache()
    val (pc, rr) = RandomHyperplaneLSH.blockingMetrics(cands, ds.matches, nA, nB)
    val codesA = Checks.signatures(spark, p.drA, m)
    val codesB = Checks.signatures(spark, p.drB, m)
    Checks.bucketJoin(spark, cands, p.drA, p.drB, m)
    val pairs = cands.collect().map(r => (r.getLong(0), r.getLong(1)))
    val hits = pairs.count(gold)
    require(math.abs(pairs.length.toDouble / (nA * nB) - rr) < 1e-12, s"RR $rr does not match ${pairs.length} candidates")
    require(hits == math.round(pc * gold.size), s"PC $pc does not match the $hits gold pairs among the candidates")
    unpersist(cands, p.drA, p.drB)
    // Skew: the largest |bucket_A|·|bucket_B| over all tables.
    def buckets(codes: Map[(Long, Int), Int]) = codes.toSeq.groupBy { case ((_, t), c) => (t, c) }.map { case (b, r) => b -> r.size.toLong }
    val bA = buckets(codesA)
    val maxPairs = buckets(codesB).map { case (b, n) => n * bA.getOrElse(b, 0L) }.max
    blocking = Map("pc" -> pc, "rr" -> rr, "candidates" -> pairs.length.toDouble, "gold_hits" -> hits.toDouble,
      "max_bucket_pairs" -> maxPairs.toDouble)
    blocking
  }

  def checkIteration(o: Outcome): Unit = {
    val (prec, rec) = (o.values("precision"), o.values("recall"))
    require(prec > 0 && prec <= 1, s"precision $prec outside (0, 1]")
    val pc = blocking.getOrElse("pc", Double.NaN)
    require(rec > 0 && rec <= pc + 1e-12, s"recall $rec outside (0, PC = $pc] of the same model")
  }
}

// ---------------------------------------------------------------------
// probe-ag4: multi-probe top-N of Figure 12
// ---------------------------------------------------------------------

object ProbeAG4 {
  val Scale = 2.0
  val (k, l, mp, topN) = (10, 1, 2, 10)
  val ModelSeed = 29L // the model BlockingExperiments.multiProbe uses
}

/** `prepareBlocks`, then `MultiProbeLSH.topNCandidates(K=10, L=1, MP=2,
  * N=10)`, then `recall`: one hash table, 56 probes per A-tuple, each probe
  * row carrying its DR through the shuffle, and a window rank.
  */
final class ProbeAG4(spark: SparkSession, seed: Long) extends Workload(spark, ProbeAG4.Scale, seed) {
  import ProbeAG4._
  def name = "probe-ag4"

  def summary(iterS: Double, outs: Seq[Outcome], run: Map[String, Double]): Seq[(String, Double, String)] =
    Seq(("topn_s", iterS, "s"), ("topn_recall", median(outs, "topn_recall"), "ratio"))
  private var refRecall = Double.NaN

  def iterate(t: Tracer): Outcome = {
    val p = t("exp", "BlockingExperiments.prepareBlocks")(BlockingExperiments.prepareBlocks(spark, ds))
    val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = ModelSeed)
    val cands = t("lsh", "MultiProbeLSH.topNCandidates")(MultiProbeLSH.topNCandidates(spark, p.drA, p.drB, m, mp, topN))
    val r = t("lsh", "MultiProbeLSH.recall")(MultiProbeLSH.recall(cands, ds.matches))
    t("bench", "unpersist")(unpersist(p.drA, p.drB))
    Outcome(r, Map("topn_recall" -> r))
  }

  def replay(t: Tracer, run: String): Map[String, Double] = {
    val d = t("embedding", "Dicts.gloveLike")(Dicts.gloveLike(ds.forms))
    val (a, b) = embedBoth(t, d)
    val m = RandomHyperplaneLSH.model(ds.attrs.size * Dicts.dim, k, l, seed = ModelSeed)
    val cands = MultiProbeLSH.topNCandidates(spark, a, b, m, mp, topN).cache()
    val probe = t("lsh", "MultiProbeLSH.topNCandidates")(t.count("pairs", cands.count().toDouble))
    t("lsh", "MultiProbeLSH.recall")(MultiProbeLSH.recall(cands, ds.matches))
    unpersist(cands, a, b)
    val probeSpan = t.named(run, "MultiProbeLSH.topNCandidates").last
    Map(
      "core.embed_ms" -> ms(t, run, "TupleEmbedder.withAvgVectors"),
      "core.tuples" -> countOf(t, run, "TupleEmbedder.withAvgVectors", "tuples"),
      "lsh.probe_ms" -> probeSpan.ms,
      "lsh.probe_rows" -> (nA * l * MultiProbeLSH.probeCodes(0, k, mp).size).toDouble,
      "lsh.probe_shuffle_bytes" -> Engine.of(probeSpan.id, "shuffle_write_bytes"),
      "lsh.topn_pairs" -> probeSpan.counts("pairs"),
      "lsh.recall_ms" -> t.named(run, "MultiProbeLSH.recall").last.ms,
    )
  }

  def checkRun(): Map[String, Double] = {
    val p = BlockingExperiments.prepareBlocks(spark, ds)
    val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = ModelSeed)
    val cands = MultiProbeLSH.topNCandidates(spark, p.drA, p.drB, m, mp, topN)
    refRecall = Checks.topN(cands, p.drA, p.drB, m, mp, topN, gold)
    unpersist(p.drA, p.drB)
    Map("ref_topn_recall" -> refRecall)
  }

  def checkIteration(o: Outcome): Unit =
    require(math.abs(o.quality - refRecall) < 1e-12,
      s"top-N recall ${o.quality} differs from the brute-force reference $refRecall")
}

// ---------------------------------------------------------------------
// train-ag: the Table 4 protocol, on the driver only
// ---------------------------------------------------------------------

object TrainAG {
  val Scale = 0.25
  val cfg = DeepER.Config(negRatio = 100, folds = 5, epochs = 20)
}

/** `Experiments.prepare(negRatio = 100)`, then `Experiments.deeperF1` with
  * 5 folds and 20 epochs. No LSH and no join.
  */
final class TrainAG(spark: SparkSession, seed: Long) extends Workload(spark, TrainAG.Scale, seed) {
  import TrainAG._
  def name = "train-ag"

  def summary(iterS: Double, outs: Seq[Outcome], run: Map[String, Double]): Seq[(String, Double, String)] =
    Seq(("train_s", iterS, "s"), ("f1", median(outs, "f1"), "%"))
  private var firstF1 = Double.NaN

  def iterate(t: Tracer): Outcome = {
    val p = t("exp", "Experiments.prepare")(Experiments.prepare(spark, ds, dict, cfg.negRatio, cfg.seed))
    val f1 =
      if (!t.enabled) Experiments.deeperF1(p, cfg)
      else t("core", "DeepER.crossValidate") {
        // deeperF1's body, with the fit closure wrapped in a span.
        DeepER.meanF1(DeepER.crossValidate(p.cosFeats, p.labels, cfg, (xs, ys, s) => {
          val mlp = new MLPClassifier(p.ds.attrs.size, cfg.hidden, s)
          t("nn", "MLPClassifier.fit") {
            mlp.fit(xs, ys, cfg.epochs, cfg.batchSize, cfg.lr, cfg.l2, s)
            t.count("example_epochs", xs.size.toDouble * cfg.epochs)
          }
          mlp.predictProb _
        }))
      }
    Outcome(f1 / 100, Map("f1" -> f1, "pairs" -> p.pairs.size.toDouble))
  }

  def replay(t: Tracer, run: String): Map[String, Double] = {
    val (vecsA, vecsB) = t("core", "TupleEmbedder.collectAvgVectors") {
      t.count("tuples", (nA + nB).toDouble)
      (TupleEmbedder.collectAvgVectors(spark, ds.tableA, ds.attrs, dict),
        TupleEmbedder.collectAvgVectors(spark, ds.tableB, ds.attrs, dict))
    }
    val matches = ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toIndexedSeq
    val (pairs, _) = t("core", "DeepER.samplePairs") {
      val r = DeepER.samplePairs(matches, vecsA, vecsB, cfg.negRatio, cfg.seed)
      t.count("pairs", r._1.size.toDouble)
      r
    }
    t("core", "Similarity.cosineVector")(pairs.map(p => Similarity.cosineVector(vecsA(p.a), vecsB(p.b))))
    val cv = t.named(run, "DeepER.crossValidate").head
    val fitMs = ms(t, run, "MLPClassifier.fit")
    val exEp = countOf(t, run, "MLPClassifier.fit", "example_epochs")
    Map(
      "core.tuples" -> countOf(t, run, "TupleEmbedder.collectAvgVectors", "tuples"),
      "core.collect_ms" -> ms(t, run, "TupleEmbedder.collectAvgVectors"),
      "core.sample_ms" -> ms(t, run, "DeepER.samplePairs"),
      "core.sample_pairs" -> countOf(t, run, "DeepER.samplePairs", "pairs"),
      "core.featurize_ms" -> ms(t, run, "Similarity.cosineVector"),
      "core.cv_self_ms" -> t.selfMs(cv),
      "nn.fit_ms" -> fitMs,
      "nn.fit_example_epochs" -> exEp,
      "nn.fit_us_per_example_epoch" -> fitMs * 1000 / exEp,
    )
  }

  def checkRun(): Map[String, Double] = {
    val p = Experiments.prepare(spark, ds, dict, cfg.negRatio, cfg.seed)
    Checks.trainingPairs(p, gold, cfg.negRatio)
    Map("pairs" -> p.pairs.size.toDouble)
  }

  def checkIteration(o: Outcome): Unit = {
    val f1 = o.values("f1")
    require(f1 > 0 && f1 <= 100, s"F1 $f1 outside (0, 100]")
    require(o.values("pairs") == gold.size.toDouble * (1 + cfg.negRatio), s"pair count ${o.values("pairs")}")
    // Driver-only and seeded: every iteration, traced or not, gives the same F1.
    if (firstF1.isNaN) firstF1 = f1
    require(f1 == firstF1, s"F1 $f1 differs from the first iteration's $firstF1")
  }
}
