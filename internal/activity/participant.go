package activity

import (
	"fmt"

	"cosm/internal/cosm"
	"cosm/internal/sidl"
)

// Resource is the local transactional state a participant service
// protects. Implementations are typically the application service
// itself: Prepare validates and locks the activity's pending work,
// Commit applies it, Abort discards it. All three are keyed by activity
// identifier and must be idempotent.
type Resource interface {
	Prepare(activityID string) error
	Commit(activityID string) error
	Abort(activityID string) error
}

// ParticipantOpsIDL is the SIDL fragment every transactional service
// embeds: the three participant operations. It is spliced into a
// service's interface by ExtendSID.
const participantOps = `
        // Vote on committing the activity's pending work.
        boolean TxPrepare(in string activity);
        // Apply the activity's pending work.
        void TxCommit(in string activity);
        // Discard the activity's pending work.
        void TxAbort(in string activity);
`

// ParticipantIDL is a standalone description of a pure participant
// service (used when the transactional interface is hosted separately
// from the application interface).
const ParticipantIDL = `
// Transactional participant: two-phase-commit callbacks.
module CosmParticipant {
    interface COSM_Operations {` + participantOps + `    };
};
`

// ExtendSID returns a copy of sid whose interface additionally offers
// the three participant operations — a SID extension in exactly the
// section 3.1 sense: base-level clients still see a conforming
// description and ignore the extra operations.
func ExtendSID(sid *sidl.SID) *sidl.SID {
	ext := sid.Clone()
	strT := sidl.Basic(sidl.String)
	ext.Ops = append(ext.Ops,
		sidl.Op{Name: OpPrepare, Result: sidl.Basic(sidl.Bool), Doc: "Vote on committing the activity's pending work.",
			Params: []sidl.Param{{Name: "activity", Dir: sidl.In, Type: strT}}},
		sidl.Op{Name: OpCommit, Result: sidl.Basic(sidl.Void), Doc: "Apply the activity's pending work.",
			Params: []sidl.Param{{Name: "activity", Dir: sidl.In, Type: strT}}},
		sidl.Op{Name: OpAbort, Result: sidl.Basic(sidl.Void), Doc: "Discard the activity's pending work.",
			Params: []sidl.Param{{Name: "activity", Dir: sidl.In, Type: strT}}},
	)
	return ext
}

// HandleParticipant attaches the three participant operations of an
// ExtendSID-ed service to a Resource.
func HandleParticipant(svc *cosm.Service, res Resource) error {
	bind := func(do func(activityID string) error) cosm.OpHandler {
		return func(call *cosm.Call) error {
			var id string
			if err := call.Args(&id); err != nil {
				return err
			}
			return do(id)
		}
	}
	if err := svc.Handle(OpPrepare, func(call *cosm.Call) error {
		var id string
		if err := call.Args(&id); err != nil {
			return err
		}
		return call.Return(res.Prepare(id) == nil)
	}); err != nil {
		return fmt.Errorf("activity: %w", err)
	}
	if err := svc.Handle(OpCommit, bind(res.Commit)); err != nil {
		return fmt.Errorf("activity: %w", err)
	}
	if err := svc.Handle(OpAbort, bind(res.Abort)); err != nil {
		return fmt.Errorf("activity: %w", err)
	}
	return nil
}
