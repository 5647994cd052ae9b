package repro.ml

import org.apache.spark.ml.Transformer
import org.apache.spark.ml.classification.RandomForestClassifier
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.ml.regression.RandomForestRegressor
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.TaskKind

/** The paper's fixed estimator (§7): a "lightly auto-optimized" Random
  * Forest, and the one seam every Spark-ML fit goes through: [[assemble]]
  * builds the "__fv" feature vector, [[forest]] fits the task's forest and
  * [[score]] turns "__p" predictions into a score. Scores follow a
  * higher-is-better convention: classification → holdout accuracy,
  * regression → negative holdout MAE.
  *
  * `holdoutScore` (the fast config) is the cheap inner-loop evaluator used
  * by wrapper selectors; `autoScore` fits the larger final config once,
  * for the paper's final estimates.
  */
object Estimator {

  /** Fast inner-loop config. */
  val FastTrees = 25
  val FastDepth = 6

  /** Final-estimate config. Depth capped at 8: deeper forests on wide
    * (500+-feature) frames blow up the per-level split-stats tasks to tens
    * of MB for no accuracy gain at this data scale.
    */
  val FinalTrees = 60
  val FinalDepth = 8

  /** Few split bins: MLlib RF split-stats scale as nodes × features ×
    * bins; 8 bins keeps wide-frame (500+-feature) fits from shipping
    * tens-of-MB task binaries, with no accuracy gain at this data scale.
    */
  val Bins = 8

  /** Deterministic 70/30 split on a seeded rand column. */
  def split(df: DataFrame, seed: Long): (DataFrame, DataFrame) = {
    val tagged = df.withColumn("__u", rand(seed))
    (tagged.filter(col("__u") < 0.7).drop("__u"),
     tagged.filter(col("__u") >= 0.7).drop("__u"))
  }

  /** `df` with nulls in `features` filled by 0 and the features packed
    * into the "__fv" vector column that every model reads. Assemble each
    * side of a [[split]], never the frame before it: `rand(seed)` sees
    * the partition layout. coalesce(4): coreset-scale frames in 16 default
    * partitions spend more time scheduling tiny tasks per tree level than
    * computing.
    */
  def assemble(df: DataFrame, features: Seq[String]): DataFrame =
    new VectorAssembler().setInputCols(features.toArray).setOutputCol("__fv")
      .transform(df.na.fill(0.0, features)).coalesce(4)

  /** Fit the task's Random Forest (`trees` trees of depth ≤ `depth`,
    * [[Bins]] split bins, `seed`) on an [[assemble]]d frame. Returns the
    * model, which predicts into "__p", and its impurity feature importances.
    */
  def forest(train: DataFrame, target: String, task: TaskKind,
             trees: Int, depth: Int, seed: Long): (Transformer, Vector) = task match {
    case TaskKind.Classification =>
      val m = new RandomForestClassifier()
        .setFeaturesCol("__fv").setLabelCol(target).setPredictionCol("__p")
        .setNumTrees(trees).setMaxDepth(depth).setMaxBins(Bins).setSeed(seed)
        .fit(train)
      (m, m.featureImportances)
    case TaskKind.Regression =>
      val m = new RandomForestRegressor()
        .setFeaturesCol("__fv").setLabelCol(target).setPredictionCol("__p")
        .setNumTrees(trees).setMaxDepth(depth).setMaxBins(Bins).setSeed(seed)
        .fit(train)
      (m, m.featureImportances)
  }

  /** Score of the "__p" predictions in `pred`: accuracy, or −MAE. */
  def score(task: TaskKind, pred: DataFrame, target: String): Double = task match {
    case TaskKind.Classification => accuracy(pred, target, "__p")
    case TaskKind.Regression     => -mae(pred, target, "__p")
  }

  /** Train an RF with the given shape and return the holdout score. */
  def fitScore(train: DataFrame, test: DataFrame, features: Seq[String],
               target: String, task: TaskKind,
               trees: Int = FastTrees, depth: Int = FastDepth,
               seed: Long = 17L): Double = {
    val (m, _) = forest(assemble(train, features), target, task, trees, depth, seed)
    score(task, m.transform(assemble(test, features)), target)
  }

  /** Accuracy of a prediction column against the label. */
  def accuracy(pred: DataFrame, target: String, predCol: String): Double = {
    val r = pred.agg(avg(when(col(target) === col(predCol), 1.0).otherwise(0.0))).head
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }

  /** Mean absolute error of a prediction column. */
  def mae(pred: DataFrame, target: String, predCol: String): Double = {
    val r = pred.agg(avg(abs(col(target) - col(predCol)))).head
    if (r.isNullAt(0)) Double.MaxValue else r.getDouble(0)
  }

  /** One fixed-config RF holdout score — the wrapper-loop workhorse. */
  def holdoutScore(df: DataFrame, features: Seq[String], target: String,
                   task: TaskKind, seed: Long = 17L): Double = {
    if (features.isEmpty) return Double.MinValue
    val (tr, te) = split(df, seed)
    fitScore(tr, te, features, target, task, seed = seed)
  }

  /** The final estimate: one holdout fit of the final config. */
  def autoScore(df: DataFrame, features: Seq[String], target: String,
                task: TaskKind, seed: Long = 17L): Double = {
    if (features.isEmpty) return Double.MinValue
    val (tr, te) = split(df, seed)
    fitScore(tr, te, features, target, task, FinalTrees, FinalDepth, seed)
  }
}
