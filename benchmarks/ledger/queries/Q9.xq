<XMark-Q9>{
  for $s in /site return
  for $pl in $s/people return
  for $p in $pl/person return
    <person>{
      ($p/name/text(),
       for $s2 in /site return
       for $ca in $s2/closed_auctions return
       for $t in $ca/closed_auction return
         if ($t/buyer/person = $p/id)
           then <bought>{$t/itemref/item/text()}</bought> else ())
    }</person>
}</XMark-Q9>
