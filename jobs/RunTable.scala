package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp._

/** spark-submit entrypoint reproducing one of the paper's Tables 1–6:
  * `spark-submit --class repro.jobs.RunTable <jar> <n>`.
  */
object RunTable {

  val tables: Map[Int, SparkSession => Seq[String]] = Map(
    1 -> Table1.run, 2 -> Table2.run, 3 -> Table3.run,
    4 -> Table4.run, 5 -> Table5.run, 6 -> Table6.run)

  /** The table number named by the single argument. */
  def table(args: Array[String]): Int = args match {
    case Array(a) if a.toIntOption.exists(tables.contains) => a.toInt
    case _ => throw new IllegalArgumentException(
      s"usage: RunTable <n>, with n one of ${tables.keys.toSeq.sorted.mkString(", ")} " +
      s"(got ${args.mkString("'", " ", "'")})")
  }

  def main(args: Array[String]): Unit = {
    val n = table(args)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"arda-table$n")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    Harness.emit(s"table$n", tables(n)(spark))
  }
}
