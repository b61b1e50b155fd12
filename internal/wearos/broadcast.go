package wearos

import (
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
)

// Broadcast delivery. QGJ's campaigns target Activities and Services
// "because they form the large majority of the components on AW apps"
// (Section III-B), but the JJB tool QGJ descends from also fuzzes
// Broadcast Receivers, and the substrate supports them for completeness:
// protected-broadcast enforcement is where the SecurityException behaviour
// is specified in AOSP in the first place.

// BroadcastResult summarizes one broadcast: how many receivers got it and
// the worst per-receiver outcome.
type BroadcastResult struct {
	// Delivered counts receivers the broadcast reached.
	Delivered int
	// Worst is the most severe delivery result among receivers;
	// BlockedSecurity/BlockedNotFound when nothing was reachable.
	Worst DeliveryResult
}

// SendBroadcast dispatches a broadcast intent. Explicit broadcasts go to
// the named receiver; implicit ones fan out to every matching exported
// receiver. Protected actions from non-system senders are rejected exactly
// like in dispatch().
func (o *OS) SendBroadcast(in *intent.Intent) BroadcastResult {
	o.logDispatch("broadcastIntent", in)

	if o.protected(in.Action) && in.SenderUID != UIDSystem {
		thr := javalang.Newf(javalang.ClassSecurity,
			"Permission Denial: not allowed to send broadcast %s from pid=?, uid=%d", in.Action, in.SenderUID)
		o.log.Log(1000, 1000, logcat.Warn, logcat.TagActivityManager,
			"%s targeting %s", thr.Error(), in.Component.FlattenToString())
		return BroadcastResult{Worst: BlockedSecurity}
	}

	var targets []*manifest.Component
	if in.IsExplicit() {
		c := o.reg.Component(in.Component)
		if c == nil || c.Type != manifest.Receiver {
			o.log.Log(1000, 1000, logcat.Warn, logcat.TagActivityManager,
				"Unable to find receiver %s", in.Component.FlattenToString())
			return BroadcastResult{Worst: BlockedNotFound}
		}
		targets = append(targets, c)
	} else {
		for _, c := range o.reg.AllComponents(manifest.Receiver) {
			if !c.Exported {
				continue
			}
			for _, f := range c.Filters {
				if f.Matches(in) {
					targets = append(targets, c)
					break
				}
			}
		}
		if len(targets) == 0 {
			return BroadcastResult{Worst: BlockedNotFound}
		}
	}

	res := BroadcastResult{}
	for _, comp := range targets {
		if !comp.Exported && in.SenderUID != UIDSystem {
			o.log.Log(1000, 1000, logcat.Warn, logcat.TagActivityManager,
				"java.lang.SecurityException: Permission Denial: broadcasting to non-exported %s targeting %s",
				comp.Name.FlattenToString(), comp.Name.FlattenToString())
			res.worsen(BlockedSecurity)
			continue
		}
		if comp.Permission != "" && in.SenderUID != UIDSystem {
			o.log.Log(1000, 1000, logcat.Warn, logcat.TagActivityManager,
				"java.lang.SecurityException: Permission Denial: broadcast requires %s targeting %s",
				comp.Permission, comp.Name.FlattenToString())
			res.worsen(BlockedSecurity)
			continue
		}
		proc := o.ensureProcess(comp.Name.Package)
		proc.lastDelivered = comp.Name
		o.log.LogLazy(1000, 1000, logcat.Info, logcat.TagActivityManager, "", logcat.Payload{
			Op:   logcat.MsgDelivering,
			Verb: "receiver",
			Comp: comp.Name,
			N:    proc.PID,
		})

		reg, builtIn := o.registered(comp)
		var out Outcome
		if reg.h != nil {
			o.env = Env{PID: proc.PID, Clock: o.clock, Log: o.log}
			out = reg.h(&o.env, in)
		}
		dr := o.settle(proc, comp, reg.tr, builtIn, out)
		res.Delivered++
		res.worsen(dr)
		if o.sysSrv.MaybeReboot() {
			res.worsen(DeviceRebooted)
			break
		}
	}
	return res
}

// severityRank orders DeliveryResult by badness for Worst tracking.
func severityRank(r DeliveryResult) int {
	switch r {
	case DeviceRebooted:
		return 6
	case DeliveredCrash:
		return 5
	case DeliveredANR:
		return 4
	case BlockedSecurity:
		return 3
	case DeliveredRejected:
		return 2
	case DeliveredHandledException:
		return 1
	case BlockedNotFound, DeliveredNoEffect:
		return 0
	default:
		return 0
	}
}

func (r *BroadcastResult) worsen(dr DeliveryResult) {
	if r.Worst == 0 || severityRank(dr) > severityRank(r.Worst) {
		r.Worst = dr
	}
}
