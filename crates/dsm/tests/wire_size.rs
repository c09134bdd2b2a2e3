//! What the wire model charges for each DSM message: a 4-byte variant tag
//! plus the fields, fixed-width integers and the value's own encoded size.
//! These byte counts set every frame's time on the simulated network, so
//! they are pinned exactly.

use std::sync::Arc;

use nscc_dsm::{DsmMsg, LocId};
use nscc_msg::wire_size;

#[test]
fn dsm_messages_are_tag_plus_fields() {
    // 4 (tag) + 4 (loc) + 8 (age) + 8 (u64 value).
    let update: DsmMsg<u64> = DsmMsg::Update {
        loc: LocId(7),
        age: 3,
        value: Arc::new(42),
    };
    assert_eq!(wire_size(&update), 24);
    // 4 (tag) + 4 (loc) + 8 (age) + 4 (length) + 16 bytes.
    let bytes: DsmMsg<Vec<u8>> = DsmMsg::Update {
        loc: LocId(0),
        age: 0,
        value: Arc::new(vec![0; 16]),
    };
    assert_eq!(wire_size(&bytes), 36);
    assert_eq!(wire_size(&DsmMsg::<u64>::BarrierArrive { epoch: 5 }), 4 + 8);
    assert_eq!(
        wire_size(&DsmMsg::<u64>::BarrierRelease { epoch: 5 }),
        4 + 8
    );
    assert_eq!(wire_size(&DsmMsg::<u64>::Heartbeat), 4);
    assert_eq!(wire_size(&LocId(9)), 4);
}
