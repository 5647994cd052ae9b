package repro.ml

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.TaskKind

class EstimatorSpec extends SparkSpec {
  import spark.implicits._

  private lazy val clsDf = spark.range(600).select(
    (col("id") % 2).cast("double").as("y"),
    ((col("id") % 2).cast("double") * 2 + randn(1) * 0.3).as("sig"),
    randn(2).as("noise")).cache()

  private lazy val regDf = spark.range(600).select(randn(3).as("sig"), randn(4).as("noise"))
    .withColumn("y", col("sig") * 3 + randn(5) * 0.1).cache()

  test("split is deterministic and roughly 70/30") {
    val (tr, te) = Estimator.split(clsDf, 7L)
    val (tr2, _) = Estimator.split(clsDf, 7L)
    assert(tr.count() == tr2.count())
    val frac = tr.count().toDouble / clsDf.count()
    assert(frac > 0.6 && frac < 0.8)
  }

  test("accuracy metric") {
    val df = Seq((1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)).toDF("y", "p")
    assert(Estimator.accuracy(df, "y", "p") == 0.75)
  }

  test("mae metric") {
    val df = Seq((1.0, 2.0), (3.0, 1.0)).toDF("y", "p")
    assert(Estimator.mae(df, "y", "p") == 1.5)
  }

  test("score is accuracy for classification and −MAE for regression") {
    val df = Seq((1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (3.0, 0.0)).toDF("y", "__p")
    assert(Estimator.score(TaskKind.Classification, df, "y") == 0.5)
    assert(Estimator.score(TaskKind.Regression, df, "y") == -1.0)
  }

  test("classification holdout score is high with a separating feature") {
    val s = Estimator.holdoutScore(clsDf, Seq("sig"), "y", TaskKind.Classification)
    assert(s > 0.9, s"accuracy $s")
  }

  test("classification with noise only is near chance") {
    val s = Estimator.holdoutScore(clsDf, Seq("noise"), "y", TaskKind.Classification)
    assert(s < 0.65, s"accuracy $s")
  }

  test("regression score (−MAE) improves with the signal feature") {
    val withSig = Estimator.holdoutScore(regDf, Seq("sig"), "y", TaskKind.Regression)
    val without = Estimator.holdoutScore(regDf, Seq("noise"), "y", TaskKind.Regression)
    assert(withSig > without)
  }

  test("empty feature set scores MinValue") {
    assert(Estimator.holdoutScore(clsDf, Nil, "y", TaskKind.Classification) == Double.MinValue)
  }

  test("autoScore is at least the fast holdout score ballpark") {
    val fast = Estimator.holdoutScore(clsDf, Seq("sig", "noise"), "y", TaskKind.Classification)
    val auto = Estimator.autoScore(clsDf, Seq("sig", "noise"), "y", TaskKind.Classification)
    assert(auto >= fast - 0.05)
  }

  test("MatrixOps.collect round-trips values") {
    val df = Seq((1.0, 2.0, 0.0), (3.0, 4.0, 1.0)).toDF("a", "b", "y")
    val l = MatrixOps.collect(df, Seq("a", "b"), "y")
    assert(l.x(0, 0) == 1.0 && l.x(1, 1) == 4.0 && l.y(1) == 1.0)
  }

  test("MatrixOps.standardize yields zero mean unit variance") {
    val df = Seq((10.0, 0.0), (20.0, 0.0), (30.0, 0.0)).toDF("a", "y")
    val l = MatrixOps.collect(df, Seq("a"), "y")
    MatrixOps.standardize(l.x)
    val col = (0 until 3).map(i => l.x(i, 0))
    assert(math.abs(col.sum) < 1e-9)
    assert(math.abs(col.map(v => v * v).sum / 3 - 1.0) < 1e-9)
  }
}
