package predict

import (
	"titanre/internal/bincode"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Checkpoint encoding. A Warner's only state is what it has issued; what
// it will issue next is the model's, so a checkpoint names the model by
// AppendFingerprint and restores the warnings with RestoreState.

// AppendFingerprint appends everything about the model a Warner's output
// depends on — the lead window and each precursor's rule list in the
// order Feed reads it — so two models that warn alike encode alike.
func (m *Model) AppendFingerprint(dst []byte) []byte {
	dst = bincode.AppendInt(dst, int64(m.cfg.LeadWindow))
	dst = bincode.AppendUint(dst, uint64(len(m.rules)))
	for _, code := range bincode.SortedKeys(m.rules) {
		dst = bincode.AppendUint(bincode.AppendInt(dst, int64(code)), uint64(len(m.rules[code])))
		for _, r := range m.rules[code] {
			dst = bincode.AppendInt(dst, int64(r.Target))
			dst = bincode.AppendFloat(dst, r.Confidence)
			dst = bincode.AppendInt(dst, int64(r.Support))
			dst = bincode.AppendInt(dst, int64(r.MeanLead))
		}
	}
	return dst
}

// AppendState appends the warnings issued so far, in firing order.
func (w *Warner) AppendState(dst []byte) []byte {
	dst = bincode.AppendUint(dst, uint64(len(w.warnings)))
	for _, warn := range w.warnings {
		dst = bincode.AppendTime(dst, warn.Time)
		dst = bincode.AppendInt(dst, int64(warn.Node))
		dst = bincode.AppendInt(dst, int64(warn.Precursor))
		dst = bincode.AppendInt(dst, int64(warn.Target))
		dst = bincode.AppendFloat(dst, warn.Confidence)
		dst = bincode.AppendTime(dst, warn.Deadline)
	}
	return dst
}

// RestoreState replaces the issued warnings with those AppendState wrote.
func (w *Warner) RestoreState(r *bincode.Reader) {
	w.warnings = make([]Warning, 0, r.Count(14))
	for i := cap(w.warnings); i > 0 && r.Err() == nil; i-- {
		w.warnings = append(w.warnings, Warning{
			Time:       r.Time(),
			Node:       topology.NodeID(r.Int()),
			Precursor:  xid.Code(r.Int()),
			Target:     xid.Code(r.Int()),
			Confidence: r.Float(),
			Deadline:   r.Time(),
		})
	}
}
