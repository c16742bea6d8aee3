package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entry point for every evaluation table/figure, named as
  * in [[Experiments.all]], e.g.:
  * {{{
  * spark-submit --class repro.jobs.Run target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar table4
  * }}}
  * It prints the same tables as the corresponding bench suite.
  */
object Run {
  def main(args: Array[String]): Unit = {
    val experiment = Experiments.named(args.headOption.getOrElse(""))
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(experiment.name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try experiment.run(spark)
    finally spark.stop()
  }
}
