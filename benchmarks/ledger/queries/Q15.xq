<XMark-Q15>{
  for $s in /site return
  for $cas in $s/closed_auctions return
  for $ca in $cas/closed_auction return
  for $an in $ca/annotation return
  for $d in $an/description return
  for $pl in $d/parlist return
  for $li in $pl/listitem return
  for $t in $li/text return
    <text>{$t/text()}</text>
}</XMark-Q15>
