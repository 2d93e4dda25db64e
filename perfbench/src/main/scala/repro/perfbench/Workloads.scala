package repro.perfbench

import repro.cdd.RuleMiner
import repro.core._
import repro.data.ERSynth
import repro.data.ERSynth.Profile
import repro.eval.{ExpConfig, Harness, Method, TERiDS}
import repro.pivot.PivotSelector

/** One benchmark workload: an ERSynth profile at one Table 5 grid point
  * (α and ρ stay at their Table 5 defaults).
  *
  * @param timedSteps  timestamps each closed-loop pass replays (one arrival
  *                    per stream per timestamp)
  * @param offeredPerS open-loop offered load in arrivals per second
  */
final case class Workload(
    name: String,
    profile: Profile,
    w: Int,
    xi: Double,
    m: Int,
    eta: Double,
    timedSteps: Int,
    offeredPerS: Double,
    spark: Boolean = false,
)

object Workloads {

  /** Timestamps per Spark micro-batch. */
  val BatchTs = 25

  /** The seed tests use; README.md records it and the held-out seed. */
  val DefaultSeed = 1L

  // Why each exists is recorded in BENCHMARK.json and README.md:
  // impute-heavy spends its time in Eq. 4 imputation through the DR-index
  // and runs every core layer, spark-microbatch in the Spark layer. README.md
  // records why the ER-bound window-er workload was dropped.
  val all: Vector[Workload] = Vector(
    Workload("impute-heavy", ERSynth.Songs, w = 200, xi = 0.5, m = 2, eta = 0.5,
      timedSteps = 700, offeredPerS = 125),
    Workload("spark-microbatch", ERSynth.Citations, w = 300, xi = 0.1, m = 1, eta = 0.3,
      timedSteps = 150, offeredPerS = 35, spark = true),
  )

  def byName(n: String): Option[Workload] = all.find(_.name == n)
}

/** Everything one seed of a workload feeds the system: the masked streams,
  * the offline inputs (through [[Harness]], so engines are built exactly as
  * the experiments build them) and the Eq. 2 ground truth.
  *
  * `seed` picks which tuples and attributes are missing
  * (`ERSynth.mask`). `dataSeed` generates the entities and the repository
  * (`Profile.copy(seed = …)`); it defaults to the profile's own seed, the
  * data every experiment uses, because different data seeds change a
  * workload's cost by up to 1.5×, more than any regression bound.
  */
final class Inputs(val wl: Workload, val seed: Long, val dataSeed: Long) {
  def this(wl: Workload, seed: Long) = this(wl, seed, wl.profile.seed)

  val cfg: ExpConfig = ExpConfig(wl.profile.copy(seed = dataSeed), xi = wl.xi, w = wl.w, eta = wl.eta, m = wl.m)
  val base: ERSynth.Base = Harness.base(cfg.profile)
  // Harness memoizes by profile name, not seed: a second data seed in the
  // same JVM would silently reuse the first one's data.
  require(base.profile == cfg.profile, s"Harness already holds another data seed of ${wl.profile.name}")

  val (streamA, streamB) = ERSynth.mask(base, wl.xi, wl.m, seed)
  val params: Params     = Params(ERSynth.defaultKeywords(base), cfg.gamma, cfg.alpha, cfg.w)
  val d: Int             = base.profile.d

  /** Arrivals per timestamp, one record per stream, as `Engine.run` feeds them. */
  val steps: Vector[Seq[Record]] =
    Vector.tabulate(math.max(streamA.size, streamB.size)) { t =>
      Seq(streamA, streamB).flatMap(s => if (t < s.size) Some(s(t)) else None)
    }
  val timed: Vector[Seq[Record]] = steps.take(wl.timedSteps)
  val timedArrivals: Int         = timed.map(_.size).sum

  lazy val truth: Set[(Long, Long)] = Harness.groundTruth(cfg)

  /** Pairs both of whose members arrive in the first `n` timestamps. Rids
    * encode the stream index as 2i / 2i + 1, so rid / 2 is the timestamp.
    */
  def within(pairs: Set[(Long, Long)], n: Int): Set[(Long, Long)] =
    pairs.filter { case (a, b) => a / 2 < n && b / 2 < n }

  /** A fresh engine with a fresh `Repo` (cold neighbor memo), as the
    * experiments build it. Rules and pivots come from the Harness memo.
    */
  def engine(method: Method): Engine = Harness.engineFor(method, cfg)

  def repoRows: IndexedSeq[Vector[String]] = Harness.repo(cfg.profile, cfg.eta).rows
  def rules: Vector[repro.cdd.Rule]        = Harness.rules(cfg.profile, cfg.eta, UseCDD)
  def pivots: Pivots                       = Harness.pivots(cfg.profile, cfg.eta)

  /** The cold offline build a user pays once per repository: tokenize R,
    * mine the CDDs, select pivots, and build the engine with its CDD-index,
    * DR-index and ER-grid. Bypasses every Harness memo.
    */
  def coldBuild(): Inputs.Built = {
    val repo  = ERSynth.repoAt(base, wl.eta)
    val rules = RuleMiner.mineCDDs(repo)
    val piv   = PivotSelector.select(repo)
    Inputs.Built(repo, rules, piv, new Engine(d, rules, Some(repo), piv, base.topicVocab, params,
      useCddIndex = true, useDrIndex = true, useGrid = true, usePruning = true, imputeKind = UseCDD))
  }

  def terids(): Engine = engine(TERiDS)

  /** Mask seed of the second stream the F-score pools over. */
  def secondMaskSeed: Long = seed + 1000003L
}

object Inputs {
  final case class Built(repo: repro.impute.Repo, rules: Vector[repro.cdd.Rule], pivots: Pivots, engine: Engine)
}
