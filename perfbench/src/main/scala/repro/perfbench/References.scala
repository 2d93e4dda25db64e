package repro.perfbench

import scala.util.Try
import repro.eval.CddEr

/** What a run's outputs are checked against, computed in the bench JVM after
  * the measured phase, so that running the naive engine (which shares
  * `Engine`, `Imputer` and `Pruning` with TER-iDS) cannot change how the JIT
  * compiled the measured code.
  *
  * @param naive the naive CDD+ER engine's matches over the timed prefix
  *              (`Harness.engineFor(CddEr, …)`), which every timed pass
  *              must reproduce
  * @param whole TER-iDS's matches over the whole stream on the run's mask
  *              and on its second mask, for the pooled F-score (untraced
  *              runs only)
  */
final case class References(naive: Set[(Long, Long)], whole: Option[Try[(Set[(Long, Long)], Set[(Long, Long)])]])

object References {

  /** All references at once, on up to three threads. */
  def of(in: Inputs, wholeStreams: Boolean): References = {
    val whole =
      if (!wholeStreams) None
      else Some((new Background("mask")(wholeStream(in, in.seed)),
                 new Background("second mask")(wholeStream(in, in.secondMaskSeed))))
    val naive = { val e = in.engine(CddEr); in.timed.foreach(e.step); e.allMatches }
    References(naive, whole.map { case (a, b) => Try((a.get, b.get)) })
  }

  /** TER-iDS's matches over the whole stream masked with `maskSeed`. */
  def wholeStream(in: Inputs, maskSeed: Long): Set[(Long, Long)] = {
    val masked = if (maskSeed == in.seed) in else new Inputs(in.wl, maskSeed, in.dataSeed)
    val e      = masked.terids()
    masked.steps.foreach(e.step)
    e.allMatches
  }
}
