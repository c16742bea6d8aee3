package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.ERDatasets
import repro.exp.{BlockingExperiments, Dicts, Experiments}
import repro.exp.Experiments.fmtPct
import repro.lsh.{MultiProbeLSH, RandomHyperplaneLSH}

/** Scale-1, seed-404 check that the workloads measure the program behind
  * the paper tables: the generator yields `ERDatasets.prodAG`'s rows, and
  * each workload's path reproduces its EXPERIMENTS.md value to the printed
  * digit.
  */
object SelfCheck {

  private def rows(df: DataFrame): Seq[String] = df.collect().map(_.toString).toSeq

  def run(spark: SparkSession): (Map[String, Any], Map[String, Any]) = {
    val ds = ProdAG.generate(spark, 1.0, ProdAG.DefaultSeed)
    val ref = ERDatasets.prodAG(spark)
    val sameRows = rows(ds.tableA) == rows(ref.tableA) && rows(ds.tableB) == rows(ref.tableB) &&
      rows(ds.matches) == rows(ref.matches) && ds.forms == ref.forms && ds.attrs == ref.attrs

    val p = BlockingExperiments.prepareBlocks(spark, ds)
    val Seq((_, _, prec, rec)) = BlockingExperiments.endToEnd(spark, p, Seq((BlockAG.k, BlockAG.l)))
    val model = RandomHyperplaneLSH.model(p.dim, ProbeAG4.k, ProbeAG4.l, seed = ProbeAG4.ModelSeed)
    val topn = MultiProbeLSH.recall(
      MultiProbeLSH.topNCandidates(spark, p.drA, p.drB, model, ProbeAG4.mp, ProbeAG4.topN), ds.matches)
    val prep = Experiments.prepare(spark, ds, Dicts.gloveLike(ds.forms), TrainAG.cfg.negRatio, TrainAG.cfg.seed)
    val f1 = Experiments.deeperF1(prep, TrainAG.cfg)

    // (check, measured, EXPERIMENTS.md)
    val checks = Seq(
      ("rows equal ERDatasets.prodAG", sameRows.toString, "true"),
      ("Fig 11 K=4 L=10 precision", fmtPct(prec), "0.64"),
      ("Fig 11 K=4 L=10 recall", fmtPct(rec), "0.82"),
      ("Fig 12 MP=2 top-10 recall", fmtPct(topn), "0.73"),
      ("Table 4 Prod-AG DeepER F1", fmtPct(f1), "96.25"),
    )
    checks.foreach { case (what, got, exp) =>
      println(f"$what%-32s $got%8s  (EXPERIMENTS.md $exp)${if (got == exp) "" else "  MISMATCH"}")
    }
    val failed = checks.count { case (_, got, exp) => got != exp }
    def m(v: Double, unit: String) = Map("value" -> v, "unit" -> unit)
    val meta = Map("selfcheck" -> checks.map { case (w, g, e) => Map("check" -> w, "measured" -> g, "expected" -> e) },
      "environment" -> Main.environment(spark), "scale" -> 1.0, "seed" -> ProdAG.DefaultSeed)
    val result = Map("correct" -> (failed == 0), "attempted" -> checks.size, "failed" -> failed,
      "metrics" -> Map("precision" -> m(prec, "ratio"), "recall" -> m(rec, "ratio"),
        "topn_recall" -> m(topn, "ratio"), "f1" -> m(f1, "%")))
    (meta, result)
  }
}
