package repro.perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.perfbench.ListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** The pinned Spark configuration the benchmark runs under: local mode on
  * `cores` cores with as many shuffle partitions.
  */
final case class SparkSettings(cores: Int, localDir: String) {
  def describe: String =
    s"local[$cores] shuffle.partitions=$cores broadcastJoin=off " +
      s"heap=${Runtime.getRuntime.maxMemory / (1L << 20)}MB"
}

object Session {
  def start(s: SparkSettings): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[${s.cores}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s.localDir)
      .config("spark.sql.shuffle.partitions", s.cores.toString)
      // The repository's test session disables broadcast joins; so does
      // the benchmark, so both exercise the same physical plans.
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }
}

/** Counts Spark jobs and tasks. Read [[snapshot]] only through
  * [[JobCounter.exact]], which drains the listener bus first.
  */
final class JobCounter extends SparkListener {
  private val jobs = new AtomicLong
  private val tasks = new AtomicLong
  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()

  /** (jobs, tasks) so far, after every event posted until now is delivered. */
  def exact(spark: SparkSession): (Long, Long) = {
    ListenerBus.drain(spark.sparkContext)
    (jobs.get, tasks.get)
  }
}

object JobCounter {
  def attach(spark: SparkSession): JobCounter = {
    val c = new JobCounter
    spark.sparkContext.addSparkListener(c)
    c
  }
}
