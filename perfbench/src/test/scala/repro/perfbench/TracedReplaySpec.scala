package repro.perfbench

import java.io.File
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite
import repro.impute.Repo

class TracedReplaySpec extends AnyFunSuite {

  // Long enough that each window fills and starts evicting.
  private def prefix(wl: Workload): Int = math.min(wl.timedSteps, wl.w + 100)

  for (wl <- Workloads.all.filterNot(_.spark)) {
    test(s"traced replay reproduces Engine's matches and pair outcomes on ${wl.name}") {
      val in    = new Inputs(wl, Workloads.DefaultSeed)
      val steps = in.steps.take(prefix(wl))
      val eng   = in.terids()
      steps.foreach(eng.step)
      val r = new TracedReplay(in.d, in.rules, new Repo(in.repoRows), in.pivots, in.base.topicVocab,
        in.params, new Tracer)
      steps.foreach(r.step)

      assert(eng.allMatches.nonEmpty)
      assert(r.allMatches == eng.allMatches)
      assert(r.c.pairOutcomes == ReplayCounters.pairOutcomes(eng.stats))
      assert(r.c.refineCalls == eng.stats.prunedInstancePair + eng.stats.refinedFull + r.c.refineMatched)
      // One span row per timestamp; self times are non-negative and add up
      // to the traced total.
      assert(r.tr.steps.size == steps.size)
      assert(r.tr.selfNs.forall(_ >= 0))
      assert(r.tr.steps.map(_._4.sum).sum == r.tr.totalNs)
      assert(r.tr.steps.forall { case (_, s, e, self) => self.sum == e - s })
    }
  }

  test("BENCHMARK.json lists the workloads and metrics the benchmark reports") {
    val root = new File(sys.props.getOrElse("perfbench.root", ".."))
    val json = new ObjectMapper().readTree(new File(root, "BENCHMARK.json"))
    def named(key: String): Vector[(String, String)] =
      json.get(key).elements.asScala.map(m => m.get("name").asText -> Option(m.get("unit")).map(_.asText).orNull).toVector
    assert(named("workloads").map(_._1) == Workloads.all.map(_.name))
    assert(named("end_to_end") == MetricDefs.endToEnd)
    assert(named("per_layer") == MetricDefs.perLayer)
  }

  test("nearest-rank percentiles and medians") {
    val xs = (1 to 1000).map(_.toDouble).toArray
    assert(Stats.percentile(xs, 0.5) == 500.0)
    assert(Stats.percentile(xs, 0.99) == 990.0)
    assert(Stats.percentile(Array(3.0), 0.99) == 3.0)
    assert(Stats.median(Seq(4.0, 1.0)) == 2.5)
    assert(Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0)
  }

  test("floors are the element-wise minimum over passes") {
    assert(Stats.floor(Seq(Array(3.0, 1.0, 5.0), Array(2.0, 4.0, 6.0))).toSeq == Seq(2.0, 1.0, 5.0))
    assert(Stats.floor(Seq(Array(7.0))).toSeq == Seq(7.0))
    assertThrows[IllegalArgumentException](Stats.floor(Seq(Array(1.0), Array(1.0, 2.0))))
  }
}
