package repro.automl

import org.apache.spark.ml.{Predictor, Transformer}
import org.apache.spark.ml.classification.{GBTClassifier, LogisticRegression}
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.ml.regression.{GBTRegressor, LinearRegression}
import org.apache.spark.sql.DataFrame

import repro.core.TaskKind
import repro.ml.Estimator

/** Substitute for the closed AutoML systems the paper compares against
  * (Microsoft Azure AutoML, Alpine Meadow): a time-budgeted sequential
  * model + hyperparameter search over Spark-ML Random Forests, gradient
  * boosted trees and linear models. Plays the same role in Tables 1/6 —
  * an expensive estimator run directly on the base table ("baseline") or
  * on the fully-materialized join ("all features"), with no ARDA
  * selection in the loop. Documented in DESIGN.md.
  */
object AutoMLLite {

  /** Best holdout score found within `budgetSeconds` (accuracy, or −MAE). */
  def search(df: DataFrame, features: Seq[String], target: String,
             task: TaskKind, budgetSeconds: Double = 45.0, seed: Long = 17L): Double = {
    if (features.isEmpty) return Double.MinValue
    val (tr0, te0) = Estimator.split(df, seed)
    val tr = Estimator.assemble(tr0, features).cache()
    val te = Estimator.assemble(te0, features).cache()
    tr.count(); te.count()

    val deadline = System.nanoTime() + (budgetSeconds * 1e9).toLong
    // Tried in order after the RF grid: two linear models, then GBT.
    val linearAndGbt: Seq[Predictor[Vector, _, _ <: Transformer]] = task match {
      case TaskKind.Classification =>
        Seq(0.0, 0.01).map(r => new LogisticRegression().setRegParam(r).setMaxIter(60)) ++
          // GBT is binary-only in Spark ML.
          (if (tr.select(target).distinct().count() == 2)
             Seq(new GBTClassifier().setMaxIter(15).setMaxDepth(5).setMaxBins(Estimator.Bins).setSeed(seed))
           else Nil)
      case TaskKind.Regression =>
        Seq(0.0, 0.01).map(r => new LinearRegression().setRegParam(r).setMaxIter(60)) :+
          new GBTRegressor().setMaxIter(15).setMaxDepth(5).setMaxBins(Estimator.Bins).setSeed(seed)
    }
    val fits: Seq[() => Transformer] =
      Seq((40, 6), (80, 8), (120, 8)).map { case (t, d) =>
        () => Estimator.forest(tr, target, task, t, d, seed)._1
      } ++ linearAndGbt.map { p => () =>
        p.setFeaturesCol("__fv"); p.setLabelCol(target); p.setPredictionCol("__p")
        p.fit(tr)
      }

    var best = Double.MinValue
    val it = fits.iterator
    var ran = 0
    while (it.hasNext && (ran == 0 || System.nanoTime() < deadline)) {
      best = math.max(best, Estimator.score(task, it.next()().transform(te), target))
      ran += 1
    }
    tr.unpersist(false); te.unpersist(false)
    best
  }
}
